package h264

import (
	"hdvideobench/internal/bitstream"
	"hdvideobench/internal/entropy"
)

// Coefficient-block coding: CABAC-style significance map + last flag +
// reverse-order level coding (sign in bypass). The same syntax is routed
// through the VLC backend in the EntropyVLC ablation.

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// writeCoeffs codes one scanned coefficient vector. Returns true if the
// block has any non-zero coefficient (the coded-block flag).
func writeCoeffs(w symWriter, cbf *entropy.Prob, sig, last, lvl []entropy.Prob, coefs []int32) bool {
	n := len(coefs)
	lastIdx := -1
	for i := n - 1; i >= 0; i-- {
		if coefs[i] != 0 {
			lastIdx = i
			break
		}
	}
	if lastIdx < 0 {
		w.bit(cbf, 0)
		return false
	}
	w.bit(cbf, 1)
	for i := 0; i < n-1 && i <= lastIdx; i++ {
		if coefs[i] != 0 {
			w.bit(&sig[minInt(i, len(sig)-1)], 1)
			if i == lastIdx {
				w.bit(&last[minInt(i, len(last)-1)], 1)
				break
			}
			w.bit(&last[minInt(i, len(last)-1)], 0)
		} else {
			w.bit(&sig[minInt(i, len(sig)-1)], 0)
		}
	}
	for i := lastIdx; i >= 0; i-- {
		v := coefs[i]
		if v == 0 {
			continue
		}
		mag := v
		if mag < 0 {
			mag = -mag
		}
		w.ue(lvl, 4, uint32(mag-1))
		if v < 0 {
			w.bypass(1)
		} else {
			w.bypass(0)
		}
	}
	return true
}

// readCoeffs reads writeCoeffs' syntax from an EntropyVLC stream, where
// every bin is a plain bit and a level a ue(v); CABAC streams go through
// entropy.Decoder.DecodeCoeffs. Scan position i is coefficient scan[i] of
// coefs, which must be zero where scan points.
//
//hdvlint:noalloc
func readCoeffs(r *bitstream.Reader, scan []int, coefs []int32) bool {
	if r.ReadBit() == 0 {
		return false
	}
	var pos [16]int
	np := 0
	n := len(scan)
	i := 0
	for ; i < n-1; i++ {
		if r.ReadBit() == 1 {
			pos[np] = scan[i]
			np++
			if r.ReadBit() == 1 {
				break
			}
		}
	}
	if i == n-1 {
		pos[np] = scan[n-1]
		np++
	}
	for j := np - 1; j >= 0; j-- {
		mag := int32(r.ReadUE()) + 1
		if r.ReadBit() == 1 {
			mag = -mag
		}
		coefs[pos[j]] = mag
	}
	return true
}

// Block categories index the cbf contexts.
const (
	catLuma     = 0
	catLumaDC   = 1
	catChromaDC = 2
	catChromaAC = 3
)

// scanBlock4 maps a raster 4×4 coefficient block to zigzag scan order,
// starting at scan position start (1 for AC-only blocks).
func scanBlock4(blk *[16]int32, start int, out []int32) {
	for i := start; i < 16; i++ {
		out[i-start] = blk[zigzag4[i]]
	}
}

// zigzag4 is dct.Zigzag4 (local alias to keep hot loops tight).
var zigzag4 = [16]int{0, 1, 4, 8, 5, 2, 3, 6, 9, 12, 13, 10, 7, 11, 14, 15}

// dcScan2 is the 2×2 chroma DC order: coded as stored.
var dcScan2 = [4]int{0, 1, 2, 3}
