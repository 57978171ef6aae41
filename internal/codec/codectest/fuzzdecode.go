package codectest

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/seqgen"
)

// writeSeeds regenerates the committed seed corpus of a FuzzDecode target:
//
//	go test -run FuzzDecodeMPEG2 ./internal/mpeg/ -codectest.writeseeds
//
// The files freeze today's bitstreams, so they are rewritten only when a
// syntax change is intended.
var writeSeeds = flag.Bool("codectest.writeseeds", false, "rewrite testdata/fuzz/<target>/ from the current encoders")

// fuzzW×fuzzH is the smallest picture with interior macroblocks in both
// directions and room for two slices.
const fuzzW, fuzzH = 96, 80

// fuzzStream is one encoder configuration's valid stream: I, P, B, B in
// coded order.
type fuzzStream struct {
	hdr  container.Header
	pkts []container.Packet
}

// FuzzDecode is the differential decode fuzzer all three codecs
// share. Every configuration encodes a four-frame IPBB clip; a fuzz input
// (configuration, packet index, payload) replaces one packet's payload and
// decodes the whole stream — so the damaged picture is also used as a
// reference — on three schedules: slices serial, slices on a goroutine
// each, slices in reverse order. The decoder must never panic, and the
// schedules must agree: the same packet fails on all three, or all three
// return byte-equal frames. (Decoders have no wavefront axis; the slice
// runner is their only scheduling hook.)
func FuzzDecode(f *testing.F,
	newEnc func(codec.Config) (codec.Encoder, error),
	newDec func(container.Header) (codec.Decoder, error),
	cfgs []codec.Config) {

	inputs := seqgen.New(seqgen.RushHour, fuzzW, fuzzH).Generate(4)
	streams := make([]fuzzStream, len(cfgs))
	for i, cfg := range cfgs {
		enc, err := newEnc(cfg)
		if err != nil {
			f.Fatal(err)
		}
		s := fuzzStream{hdr: enc.Header()}
		for _, in := range inputs {
			pkts, err := enc.Encode(in)
			if err != nil {
				f.Fatal(err)
			}
			s.pkts = append(s.pkts, pkts...)
		}
		pkts, err := enc.Flush()
		if err != nil {
			f.Fatal(err)
		}
		s.pkts = append(s.pkts, pkts...)
		streams[i] = s
		for k, p := range s.pkts {
			f.Add(uint8(i), uint8(k), p.Payload)
		}
	}
	if *writeSeeds {
		if err := writeSeedCorpus(f.Name(), streams); err != nil {
			f.Fatal(err)
		}
	}

	runners := []codec.SliceRunner{nil, goRun, reverseRun}
	f.Fuzz(func(t *testing.T, cfgSel, pktSel uint8, payload []byte) {
		s := streams[int(cfgSel)%len(streams)]
		k := int(pktSel) % len(s.pkts)
		pkts := append([]container.Packet(nil), s.pkts...)
		pkts[k].Payload = payload

		var first []*frame.Frame
		firstFail := 0
		for ri, runner := range runners {
			dec, err := newDec(s.hdr)
			if err != nil {
				t.Fatal(err)
			}
			dec.SetSliceRunner(runner)
			frames, fail := decodeAll(dec, pkts)
			if fail >= 0 && fail < k {
				t.Fatalf("valid packet %d ahead of the fuzzed one failed", fail)
			}
			if ri == 0 {
				first, firstFail = frames, fail
				continue
			}
			if fail != firstFail {
				t.Fatalf("schedule %d failed at packet %d, serial at %d (-1 = none)", ri, fail, firstFail)
			}
			if len(frames) != len(first) {
				t.Fatalf("schedule %d returned %d frames, serial %d", ri, len(frames), len(first))
			}
			for i := range frames {
				a, b := frames[i], first[i]
				if a.PTS != b.PTS || !bytes.Equal(a.Y, b.Y) || !bytes.Equal(a.Cb, b.Cb) || !bytes.Equal(a.Cr, b.Cr) {
					t.Fatalf("schedule %d: frame %d differs from the serial decode", ri, i)
				}
			}
		}
	})
}

// decodeAll decodes pkts in order and returns the frames delivered before
// the first failing packet and that packet's index (-1: none failed).
func decodeAll(dec codec.Decoder, pkts []container.Packet) ([]*frame.Frame, int) {
	var out []*frame.Frame
	for i, p := range pkts {
		fs, err := dec.Decode(p)
		if err != nil {
			return out, i
		}
		out = append(out, fs...)
	}
	return append(out, dec.Flush()...), -1
}

// goRun is a codec.SliceRunner with one goroutine per slice.
func goRun(n int, job func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job(i)
		}(i)
	}
	wg.Wait()
}

// reverseRun runs the slices last to first: a decoder whose slices read
// each other's rows decodes differently here than in order.
func reverseRun(n int, job func(i int)) {
	for i := n - 1; i >= 0; i-- {
		job(i)
	}
}

// writeSeedCorpus writes every real payload plus the damage patterns of
// the root robustness tests — truncation and single-bit flips — in the Go
// fuzzing corpus format, replacing the cfg* files of an earlier run.
// Findings filed beside them (found-*) are left alone.
func writeSeedCorpus(target string, streams []fuzzStream) error {
	dir := filepath.Join("testdata", "fuzz", target)
	old, err := filepath.Glob(filepath.Join(dir, "cfg*"))
	if err != nil {
		return err
	}
	for _, name := range old {
		if err := os.Remove(name); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, ci, k int, payload []byte) error {
		body := fmt.Sprintf("go test fuzz v1\nuint8(%d)\nuint8(%d)\n[]byte(%q)\n", ci, k, payload)
		return os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644)
	}
	for ci, s := range streams {
		for k, p := range s.pkts[:3] { // I, P and the first B
			base := fmt.Sprintf("cfg%d-%c%d", ci, p.Type, k)
			if err := write(base, ci, k, p.Payload); err != nil {
				return err
			}
			n := len(p.Payload)
			for _, cut := range []int{n / 7, n / 2, n - 3} {
				if err := write(fmt.Sprintf("%s-cut%d", base, cut), ci, k, p.Payload[:cut]); err != nil {
					return err
				}
			}
			for _, pos := range []int{n / 5, n / 2, n - 2} {
				flipped := append([]byte(nil), p.Payload...)
				flipped[pos] ^= 0x40
				if err := write(fmt.Sprintf("%s-flip%d", base, pos), ci, k, flipped); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
