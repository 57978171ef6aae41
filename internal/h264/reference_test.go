package h264

import (
	"fmt"
	"math/rand"
	"testing"

	"hdvideobench/internal/bitstream"
	"hdvideobench/internal/entropy"
)

// The per-bin coefficient reader this package shipped before the block
// decoder, kept verbatim as the specification entropy.Decoder.DecodeCoeffs
// is tested against: one symDec call per bin, the range state through
// memory every bin, coefficients in scan order. Nothing outside the tests
// uses it.

// refReadCoeffs is that reader, renamed: it mirrors writeCoeffs; coefs is
// zeroed and filled in scan order.
// sig and last have the same length; scan positions past it share their
// final context, so the context index counts up and stops there.
func refReadCoeffs(r *symDec, cbf *entropy.Prob, sig, last, lvl []entropy.Prob, coefs []int32) bool {
	n := len(coefs)
	for i := range coefs {
		coefs[i] = 0
	}
	if r.bit(cbf) == 0 {
		return false
	}
	var positions [16]int
	np := 0
	terminated := false
	last = last[:len(sig)]
	for i, ci := 0, 0; i < n-1; i++ {
		if r.bit(&sig[ci]) == 1 {
			positions[np] = i
			np++
			if r.bit(&last[ci]) == 1 {
				terminated = true
				break
			}
		}
		if ci < len(sig)-1 {
			ci++
		}
	}
	if !terminated {
		positions[np] = n - 1
		np++
	}
	for j := np - 1; j >= 0; j-- {
		mag := int32(r.ue(lvl, 4)) + 1
		if r.bypass() == 1 {
			mag = -mag
		}
		coefs[positions[j]] = mag
	}
	return true
}

// coeffKind is one block shape of the slice syntax: its scan and the
// context set it is coded with.
type coeffKind struct {
	name           string
	scan           []int
	cbf            func(*contexts) *entropy.Prob
	sig, last, lvl func(*contexts) []entropy.Prob
}

var coeffKinds = []coeffKind{
	{"luma4x4", zigzag4[:], func(c *contexts) *entropy.Prob { return &c.cbf[catLuma] },
		func(c *contexts) []entropy.Prob { return c.sig[:] }, func(c *contexts) []entropy.Prob { return c.last[:] },
		func(c *contexts) []entropy.Prob { return c.level[:] }},
	{"lumaAC", zigzag4[1:], func(c *contexts) *entropy.Prob { return &c.cbf[catLuma] },
		func(c *contexts) []entropy.Prob { return c.sig[:] }, func(c *contexts) []entropy.Prob { return c.last[:] },
		func(c *contexts) []entropy.Prob { return c.level[:] }},
	{"lumaDC", zigzag4[:], func(c *contexts) *entropy.Prob { return &c.cbf[catLumaDC] },
		func(c *contexts) []entropy.Prob { return c.sigDC[:] }, func(c *contexts) []entropy.Prob { return c.lastDC[:] },
		func(c *contexts) []entropy.Prob { return c.levelDC[:] }},
	{"chromaDC", dcScan2[:], func(c *contexts) *entropy.Prob { return &c.cbf[catChromaDC] },
		func(c *contexts) []entropy.Prob { return c.sigDC[:] }, func(c *contexts) []entropy.Prob { return c.lastDC[:] },
		func(c *contexts) []entropy.Prob { return c.levelDC[:] }},
}

// randomBlock fills coefs with a block of the kind writeCoeffs sees: empty,
// sparse or dense, magnitudes from 1 to 2²⁰ and both signs.
func randomBlock(rng *rand.Rand, coefs []int32) {
	density := []float64{0, 0.1, 0.4, 1}[rng.Intn(4)]
	for i := range coefs {
		coefs[i] = 0
		if rng.Float64() >= density {
			continue
		}
		var mag int32
		switch rng.Intn(4) {
		case 0:
			mag = 1
		case 1:
			mag = 1 + int32(rng.Intn(8)) // around the escape
		case 2:
			mag = 1 + int32(rng.Intn(300))
		default:
			mag = 1 + int32(rng.Intn(1<<20))
		}
		if rng.Intn(2) == 0 {
			mag = -mag
		}
		coefs[i] = mag
	}
}

type codedBlock struct {
	kind  int
	coefs [16]int32 // scan order, first len(scan) entries
}

// encodeBlocks writes blocks with writeCoeffs through the CABAC writer,
// every block on one contexts value, as a slice does.
func encodeBlocks(blocks []codedBlock) []byte {
	w := cabacWriter{entropy.NewEncoder(1024)}
	ctx := newContexts()
	for i := range blocks {
		k := coeffKinds[blocks[i].kind]
		writeCoeffs(w, k.cbf(ctx), k.sig(ctx), k.last(ctx), k.lvl(ctx), blocks[i].coefs[:len(k.scan)])
	}
	return w.finish()
}

// compareDecoders decodes blocks from data with refReadCoeffs and with
// DecodeCoeffs side by side, and fails on the first block where the
// coefficients, the coded-block flag, any context probability or Err
// differ. It returns the final Err.
func compareDecoders(t *testing.T, label string, blocks []codedBlock, data []byte) error {
	t.Helper()
	var ref symDec
	ref.reset(data, false)
	var dec entropy.Decoder
	dec.Reset(data)
	refCtx, ctx := newContexts(), newContexts()
	for bi := range blocks {
		k := coeffKinds[blocks[bi].kind]
		var want [16]int32
		wantNZ := refReadCoeffs(&ref, k.cbf(refCtx), k.sig(refCtx), k.last(refCtx), k.lvl(refCtx), want[:len(k.scan)])
		var got [16]int32
		gotNZ := dec.DecodeCoeffs(k.cbf(ctx), k.sig(ctx), k.last(ctx), k.lvl(ctx), k.scan, got[:])
		var raster [16]int32
		for i, p := range k.scan {
			raster[p] = want[i]
		}
		if gotNZ != wantNZ || got != raster {
			t.Fatalf("%s: block %d (%s): DecodeCoeffs = %v %v, reference %v %v", label, bi, k.name, gotNZ, got, wantNZ, raster)
		}
		if *ctx != *refCtx {
			t.Fatalf("%s: block %d (%s): context probabilities differ", label, bi, k.name)
		}
		if (dec.Err() == nil) != (ref.err() == nil) {
			t.Fatalf("%s: block %d (%s): Err %v, reference %v", label, bi, k.name, dec.Err(), ref.err())
		}
	}
	return dec.Err()
}

// TestDecodeCoeffsReference checks the block decoder against the per-bin
// reader on random blocks of length 4, 15 and 16 written by writeCoeffs:
// the same coefficients (in raster order through the scan), coded-block
// flag, context probabilities after every block, and Err, on whole
// streams, on about fifty truncations of each, and on a level escape
// whose Exp-Golomb zero run is longer than 32.
func TestDecodeCoeffsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 40; trial++ {
		blocks := make([]codedBlock, 1+rng.Intn(60))
		for i := range blocks {
			blocks[i].kind = rng.Intn(len(coeffKinds))
			randomBlock(rng, blocks[i].coefs[:len(coeffKinds[blocks[i].kind].scan)])
		}
		data := encodeBlocks(blocks)
		label := fmt.Sprintf("trial %d", trial)
		if err := compareDecoders(t, label, blocks, data); err != nil {
			t.Fatalf("%s: whole stream: %v", label, err)
		}
		for cut := 0; cut < len(data); cut += 1 + len(data)/50 {
			compareDecoders(t, fmt.Sprintf("%s cut %d/%d", label, cut, len(data)), blocks, data[:cut])
		}
	}

	// An escape no encoder writes: a 4×4 block whose one level has the
	// full prefix and then 40 zero bypass bins.
	e := entropy.NewEncoder(64)
	ctx := newContexts()
	k := coeffKinds[0]
	e.EncodeBit(k.cbf(ctx), 1)
	e.EncodeBit(&ctx.sig[0], 1)
	e.EncodeBit(&ctx.last[0], 1)
	for i := 0; i < 4; i++ {
		e.EncodeBit(&ctx.level[i], 1)
	}
	for i := 0; i < 40; i++ {
		e.EncodeBypass(0)
	}
	for i := 0; i < 200; i++ {
		e.EncodeBypass(rng.Intn(2))
	}
	blocks := make([]codedBlock, 8)
	if err := compareDecoders(t, "long escape", blocks, e.Finish()); err != bitstream.ErrOverrun {
		t.Fatalf("long escape: Err = %v, want ErrOverrun", err)
	}
}

// TestReadCoeffsVLC round-trips random blocks through writeCoeffs on the
// EntropyVLC writer and readCoeffs.
func TestReadCoeffsVLC(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	blocks := make([]codedBlock, 500)
	w := vlcWriter{bitstream.NewWriter(1024)}
	ctx := newContexts()
	for i := range blocks {
		blocks[i].kind = rng.Intn(len(coeffKinds))
		k := coeffKinds[blocks[i].kind]
		randomBlock(rng, blocks[i].coefs[:len(k.scan)])
		writeCoeffs(w, k.cbf(ctx), k.sig(ctx), k.last(ctx), k.lvl(ctx), blocks[i].coefs[:len(k.scan)])
	}
	r := bitstream.NewReader(w.finish())
	for bi, b := range blocks {
		k := coeffKinds[b.kind]
		var got, want [16]int32
		nz := false
		for i, p := range k.scan {
			want[p] = b.coefs[i]
			nz = nz || b.coefs[i] != 0
		}
		if gotNZ := readCoeffs(r, k.scan, got[:]); gotNZ != nz || got != want {
			t.Fatalf("block %d (%s): got %v %v, want %v %v", bi, k.name, gotNZ, got, nz, want)
		}
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}
