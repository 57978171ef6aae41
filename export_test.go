package hdvideobench

import _ "unsafe" // for go:linkname

// poisonRecycled is internal/codec's test hook: while it is set, an
// encoder fills every reconstruction frame it recycles, and the spare
// half-pel planes that come with it, with 0xA5 before reuse. The tests
// of this package run with it on, so the golden digests also prove that
// no coder or search reads recycled memory it has not written.
//
//go:linkname poisonRecycled hdvideobench/internal/codec.poisonRecycled
var poisonRecycled bool

func init() { poisonRecycled = true }
