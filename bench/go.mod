module hdvideobench/bench

go 1.24

require hdvideobench v0.0.0

replace hdvideobench => ../
