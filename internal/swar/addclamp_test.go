package swar

import (
	"math"
	"testing"
)

// refAddClamp is the specification of AddClampRow for one sample: the sum
// taken without overflow, then clamped to [0, 255].
func refAddClamp(pred byte, res int32) byte {
	v := int64(pred) + int64(res)
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

// addClampPairs lists every prediction 0..255 against every residual
// -1024..1023, then every prediction against the int32 extremes.
func addClampPairs() (preds []byte, res []int32) {
	for p := 0; p < 256; p++ {
		for r := int32(-1024); r < 1024; r++ {
			preds = append(preds, byte(p))
			res = append(res, r)
		}
	}
	extremes := []int32{math.MinInt32, math.MinInt32 + 1, math.MinInt32 + 255, math.MinInt32 + 256,
		-1 << 30, 1 << 30, math.MaxInt32 - 256, math.MaxInt32 - 255, math.MaxInt32 - 1, math.MaxInt32}
	for p := 0; p < 256; p++ {
		for _, r := range extremes {
			preds = append(preds, byte(p))
			res = append(res, r)
		}
	}
	return preds, res
}

// TestAddClampRowReference runs every pair of addClampPairs through
// AddClampRow in consecutive rows of n (the last row wraps to the first
// pairs), and checks each output byte against refAddClamp and the byte
// after the row untouched.
func TestAddClampRowReference(t *testing.T) {
	preds, res := addClampPairs()
	for _, n := range []int{4, 5, 8, 16} {
		dst := make([]byte, n+1)
		p := make([]byte, n)
		r := make([]int32, n)
		for start := 0; start < len(preds); start += n {
			for i := range p {
				p[i] = preds[(start+i)%len(preds)]
				r[i] = res[(start+i)%len(res)]
			}
			dst[n] = 0xA5
			AddClampRow(dst, p, r, n)
			for i := 0; i < n; i++ {
				if want := refAddClamp(p[i], r[i]); dst[i] != want {
					t.Fatalf("n=%d i=%d: pred %d + res %d = %d, want %d", n, i, p[i], r[i], dst[i], want)
				}
			}
			if dst[n] != 0xA5 {
				t.Fatalf("n=%d: wrote past the row", n)
			}
		}
	}
}
