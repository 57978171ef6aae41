package codec

// Wavefront (2D) macroblock scheduling support. Within one slice, a
// macroblock (x, y) depends on its left neighbour (x-1, y) for row-local
// prediction state and on its top-right neighbour (x+1, y-1) for
// everything the row above contributes (reconstructed pixels up to one
// macroblock to the right, MV/intra predictor grids). Running macroblocks
// as soon as exactly those two dependencies are satisfied — the classic
// wavefront front — computes every value in an order consistent with the
// serial raster scan, so all computed samples, coefficients and decisions
// are identical to the serial pass; only wall-clock changes. Codecs keep
// bitstream emission in raster order (per-row writers concatenated in
// order, or a serial replay phase), which is what keeps the coded bytes
// identical too.

// WavefrontRunner executes the rows×cols macroblock grid of one slice in
// wavefront dependency order: mb(x, y) is invoked exactly once per cell,
// never before mb(x-1, y) and mb(x+1, y-1) have returned (cells outside
// the grid count as done). Cells of one row are always invoked
// left-to-right on a single goroutine, so row-local state needs no
// synchronization. mb returning false aborts the front: the runner
// returns false as soon as practical without invoking the remaining
// cells' work (some in-flight cells may still complete). A true return
// means every cell ran and returned true.
type WavefrontRunner func(rows, cols int, mb func(x, y int) bool) bool

// SerialWavefront is the default WavefrontRunner: plain raster order on
// the calling goroutine. Raster order satisfies the wavefront dependency
// rule trivially, so codecs use one code path for both.
func SerialWavefront(rows, cols int, mb func(x, y int) bool) bool {
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			if !mb(x, y) {
				return false
			}
		}
	}
	return true
}

// RunWavefront invokes r, or SerialWavefront when r is nil.
func RunWavefront(r WavefrontRunner, rows, cols int, mb func(x, y int) bool) bool {
	if r == nil {
		return SerialWavefront(rows, cols, mb)
	}
	return r(rows, cols, mb)
}
