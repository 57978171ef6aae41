package lint

import (
	"go/ast"
	"go/types"
	"strconv"

	"hdvideobench/internal/lint/analysis"
)

// deterministicPkgs is the bitstream-affecting package set: everything
// between raw frames and coded bytes, plus the schedulers that order
// the work. The golden-digest equivalence matrix pins these packages'
// output byte-identical across workers, slices, wavefront and kernel
// settings; nothing in them may observe iteration order, the clock, or
// randomness on any path that can reach encoder output.
var deterministicPkgs = map[string]bool{
	"hdvideobench/internal/codec":     true,
	"hdvideobench/internal/mpeg":      true,
	"hdvideobench/internal/h264":      true,
	"hdvideobench/internal/motion":    true,
	"hdvideobench/internal/interp":    true,
	"hdvideobench/internal/entropy":   true,
	"hdvideobench/internal/bitstream": true,
	"hdvideobench/internal/pipeline":  true,
	"hdvideobench/internal/stream":    true,
}

// Determinism flags nondeterminism sources in the bitstream-affecting
// packages: map iteration (order varies run to run), time.Now and
// time.Since (collector timing is the one legitimate use, annotated
// per site), math/rand, and select statements with two or more
// value-binding receive cases (whichever result channel is ready first
// wins, so downstream order depends on scheduling).
var Determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid map iteration, wall-clock reads, math/rand and racing selects " +
		"in the packages whose output must be byte-identical across parallelism settings",
	Scoped: func(path string) bool { return deterministicPkgs[path] },
	Run:    runDeterminism,
}

func runDeterminism(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "import of %s: pseudo-randomness has no place in a bitstream-affecting package", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				t := pass.TypesInfo.TypeOf(n.X)
				if t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						pass.Reportf(n.Pos(), "map iteration order varies run to run; iterate sorted keys instead (annotate the key-collecting range with an allow)")
					}
				}
			case *ast.SelectorExpr:
				obj := pass.TypesInfo.Uses[n.Sel]
				if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" {
					if name := fn.Name(); name == "Now" || name == "Since" {
						pass.Reportf(n.Pos(), "time.%s reads the wall clock; only collector timing may, behind an explicit allow", name)
					}
				}
			case *ast.SelectStmt:
				binding := 0
				for _, c := range n.Body.List {
					cc, ok := c.(*ast.CommClause)
					if !ok || cc.Comm == nil {
						continue
					}
					if as, ok := cc.Comm.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
						if u, ok := as.Rhs[0].(*ast.UnaryExpr); ok && u.Op.String() == "<-" {
							binding++
						}
					}
				}
				if binding >= 2 {
					pass.Reportf(n.Pos(), "select binds results from %d channels; arrival order decides which wins, so downstream state diverges across runs", binding)
				}
			}
			return true
		})
	}
	return nil
}
