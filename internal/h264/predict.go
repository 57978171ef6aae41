package h264

// Intra prediction builders, shared bit-exactly by encoder and decoder.
// Predictions are formed from *unfiltered* reconstructed neighbours (the
// deblocking filter runs after the macroblock loop, as in the standard).

// i4Avail carries neighbour availability for one 4×4 block.
type i4Avail struct {
	left, top, topRight bool
}

// availI4 computes availability for the 4×4 block at grid position
// (bx4, by4) under raster MB / raster in-MB coding order. top4 is the
// slice's first 4×4 row: blocks above it belong to another slice and are
// unavailable (slices predict independently).
func availI4(bx4, by4, w4, top4 int) i4Avail {
	av := i4Avail{
		left: bx4 > 0,
		top:  by4 > top4,
	}
	if by4 > top4 && bx4+1 < w4 {
		// Above-right block must already be coded: it is unless it belongs
		// to the macroblock to our right within the same MB row band.
		sameMBRowBand := (by4-1)/4 == by4/4
		crossesMB := (bx4+1)/4 != bx4/4
		av.topRight = !(sameMBRowBand && crossesMB)
	}
	return av
}

// i4Candidates fills dst with the modes usable under the given
// availability, best candidates first, and returns the filled prefix.
// The caller-provided array keeps the per-4×4-block mode loop
// allocation-free.
func i4Candidates(av i4Avail, dst *[numI4Modes]int) []int {
	n := 0
	dst[n] = i4DC
	n++
	if av.top {
		dst[n] = i4Vertical
		n++
	}
	if av.left {
		dst[n] = i4Horizontal
		n++
	}
	if av.top { // DDL pads the top-right half when unavailable
		dst[n] = i4DiagDownLeft
		n++
	}
	if av.top && av.left {
		dst[n] = i4DiagDownRight
		n++
	}
	return dst[:n]
}

// predI4 writes the 4×4 intra prediction for mode into dst (stride
// dStride). (x, y) are the pixel coordinates of the block inside the plane,
// addressed as plane[origin + y*stride + x].
func predI4(dst []byte, dStride int, plane []byte, origin, stride, x, y, mode int, av i4Avail) {
	base := origin + y*stride + x
	var top [8]int32
	var left [4]int32
	var corner int32 = 128
	if av.top {
		for i := 0; i < 4; i++ {
			top[i] = int32(plane[base-stride+i])
		}
		if av.topRight {
			for i := 4; i < 8; i++ {
				top[i] = int32(plane[base-stride+i])
			}
		} else {
			for i := 4; i < 8; i++ {
				top[i] = top[3]
			}
		}
	}
	if av.left {
		for i := 0; i < 4; i++ {
			left[i] = int32(plane[base+i*stride-1])
		}
	}
	if av.top && av.left {
		corner = int32(plane[base-stride-1])
	}

	switch mode {
	case i4Vertical:
		for r := 0; r < 4; r++ {
			for c := 0; c < 4; c++ {
				dst[r*dStride+c] = byte(top[c])
			}
		}
	case i4Horizontal:
		for r := 0; r < 4; r++ {
			for c := 0; c < 4; c++ {
				dst[r*dStride+c] = byte(left[r])
			}
		}
	case i4DC:
		var sum, n int32
		if av.top {
			sum += top[0] + top[1] + top[2] + top[3]
			n += 4
		}
		if av.left {
			sum += left[0] + left[1] + left[2] + left[3]
			n += 4
		}
		dc := int32(128)
		if n > 0 {
			dc = (sum + n/2) / n
		}
		for r := 0; r < 4; r++ {
			for c := 0; c < 4; c++ {
				dst[r*dStride+c] = byte(dc)
			}
		}
	case i4DiagDownLeft:
		for r := 0; r < 4; r++ {
			for c := 0; c < 4; c++ {
				i := r + c
				var v int32
				if i == 6 {
					v = (top[6] + 3*top[7] + 2) >> 2
				} else {
					v = (top[i] + 2*top[i+1] + top[i+2] + 2) >> 2
				}
				dst[r*dStride+c] = byte(v)
			}
		}
	case i4DiagDownRight:
		// Diagonal array: [l3 l2 l1 l0 corner t0 t1 t2 t3] indices -4..4.
		get := func(i int) int32 {
			switch {
			case i < 0:
				return left[-i-1]
			case i == 0:
				return corner
			default:
				return top[i-1]
			}
		}
		for r := 0; r < 4; r++ {
			for c := 0; c < 4; c++ {
				i := c - r
				v := (get(i-1) + 2*get(i) + get(i+1) + 2) >> 2
				dst[r*dStride+c] = byte(v)
			}
		}
	}
}

// predI16 writes the 16×16 intra luma prediction for mode into dst (stride
// 16). (px, py) are the macroblock pixel coordinates.
func predI16(dst []byte, plane []byte, origin, stride, px, py, mode int, availLeft, availTop bool) {
	base := origin + py*stride + px
	switch mode {
	case i16Vertical:
		for r := 0; r < 16; r++ {
			copy(dst[r*16:r*16+16], plane[base-stride:base-stride+16])
		}
	case i16Horizontal:
		for r := 0; r < 16; r++ {
			v := plane[base+r*stride-1]
			for c := 0; c < 16; c++ {
				dst[r*16+c] = v
			}
		}
	case i16DC:
		var sum, n int32
		if availTop {
			for c := 0; c < 16; c++ {
				sum += int32(plane[base-stride+c])
			}
			n += 16
		}
		if availLeft {
			for r := 0; r < 16; r++ {
				sum += int32(plane[base+r*stride-1])
			}
			n += 16
		}
		dc := byte(128)
		if n > 0 {
			dc = byte((sum + n/2) / n)
		}
		for i := 0; i < 256; i++ {
			dst[i] = dc
		}
	case i16Plane:
		var hGrad, vGrad int32
		for i := 1; i <= 8; i++ {
			hGrad += int32(i) * (int32(plane[base-stride+7+i]) - int32(plane[base-stride+7-i]))
			vGrad += int32(i) * (int32(plane[base+(7+i)*stride-1]) - int32(plane[base+(7-i)*stride-1]))
		}
		a := 16 * (int32(plane[base+15*stride-1]) + int32(plane[base-stride+15]))
		b := (5*hGrad + 32) >> 6
		c := (5*vGrad + 32) >> 6
		for r := 0; r < 16; r++ {
			for cc := 0; cc < 16; cc++ {
				v := (a + b*int32(cc-7) + c*int32(r-7) + 16) >> 5
				if v < 0 {
					v = 0
				}
				if v > 255 {
					v = 255
				}
				dst[r*16+cc] = byte(v)
			}
		}
	}
}

// i16Usable reports whether an I16 mode predicts only from neighbours the
// macroblock has. The encoder chooses among the usable modes; the decoder
// rejects the others, which in a damaged stream would read the rows of
// another slice while that slice is still being decoded.
func i16Usable(mode int, availLeft, availTop bool) bool {
	switch mode {
	case i16Vertical:
		return availTop
	case i16Horizontal:
		return availLeft
	case i16Plane:
		return availLeft && availTop
	}
	return mode == i16DC
}

// i16Candidates fills dst with the usable I16 modes under the given
// availability and returns the filled prefix (allocation-free, as with
// i4Candidates).
func i16Candidates(availLeft, availTop bool, dst *[numI16Modes]int) []int {
	n := 0
	for _, mode := range [numI16Modes]int{i16DC, i16Vertical, i16Horizontal, i16Plane} {
		if i16Usable(mode, availLeft, availTop) {
			dst[n] = mode
			n++
		}
	}
	return dst[:n]
}

// predChromaDC writes the 8×8 DC intra prediction for one chroma plane.
func predChromaDC(dst []byte, plane []byte, origin, stride, cx, cy int, availLeft, availTop bool) {
	base := origin + cy*stride + cx
	var sum, n int32
	if availTop {
		for c := 0; c < 8; c++ {
			sum += int32(plane[base-stride+c])
		}
		n += 8
	}
	if availLeft {
		for r := 0; r < 8; r++ {
			sum += int32(plane[base+r*stride-1])
		}
		n += 8
	}
	dc := byte(128)
	if n > 0 {
		dc = byte((sum + n/2) / n)
	}
	for i := 0; i < 64; i++ {
		dst[i] = dc
	}
}
