// Determinism suite for the batch entry points: for every codec,
// resolution and worker count, EncodeSequenceParallel must reproduce the
// single-instance bitstream byte for byte and DecodePacketsParallel the
// single-instance decode exactly — a benchmark whose output changes with
// the worker count measures nothing. Run it under -race for the full
// story (the CI workflow does): identical bytes prove scheduling
// determinism, the race detector proves the workers shared nothing they
// shouldn't have.
package core_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/core"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/metrics"
	"hdvideobench/internal/seqgen"
)

const (
	detFrames = 10 // with detGOP=3: chunks of 3,3,3,1 — ragged tail
	detGOP    = 3
)

// workerCounts exercises the serial path, even splits, more workers than
// chunks, and (7 > 4 chunks) the ragged-last-chunk schedule.
var workerCounts = []int{1, 2, 4, 7}

var detResolutions = []struct {
	name string
	w, h int
}{
	{"576p", 720, 576},
	{"720p", 1280, 720},
}

// detConfig is the determinism-suite configuration: the paper's GOP
// structure (two B frames) with a short intra period so chunks exist,
// and a trimmed search so the full matrix stays fast under -race.
func detConfig(w, h int) codec.Config {
	cfg := codec.Default(w, h)
	cfg.IntraPeriod = detGOP
	cfg.SearchRange = 8
	cfg.Refs = 2
	return cfg
}

func packetsEqual(t *testing.T, serial, parallel []container.Packet) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("packet count: parallel %d, serial %d", len(parallel), len(serial))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Type != p.Type {
			t.Fatalf("packet %d: type %c, serial has %c", i, p.Type, s.Type)
		}
		if s.DisplayIndex != p.DisplayIndex {
			t.Fatalf("packet %d: display %d, serial has %d", i, p.DisplayIndex, s.DisplayIndex)
		}
		if !bytes.Equal(s.Payload, p.Payload) {
			t.Fatalf("packet %d (%c, display %d): payload differs (%d vs %d bytes)",
				i, s.Type, s.DisplayIndex, len(p.Payload), len(s.Payload))
		}
	}
}

func framesEqual(t *testing.T, serial, parallel []*frame.Frame) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("frame count: parallel %d, serial %d", len(parallel), len(serial))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.PTS != p.PTS {
			t.Fatalf("frame %d: PTS %d, serial has %d", i, p.PTS, s.PTS)
		}
		if !bytes.Equal(s.Y, p.Y) || !bytes.Equal(s.Cb, p.Cb) || !bytes.Equal(s.Cr, p.Cr) {
			t.Fatalf("frame %d: decoded planes differ", i)
		}
	}
}

// TestParallelMatchesSerial is the determinism matrix: codec ×
// {576p, 720p} × {1, 2, 4, 7} workers. Parallel encode must reproduce the
// serial bitstream byte for byte, and parallel decode must reproduce the
// serial decode (checked plane-for-plane, plus exact PSNR agreement).
func TestParallelMatchesSerial(t *testing.T) {
	for _, res := range detResolutions {
		if testing.Short() && res.name == "720p" {
			continue
		}
		for _, id := range core.AllCodecs {
			t.Run(fmt.Sprintf("%s/%v", res.name, id), func(t *testing.T) {
				cfg := detConfig(res.w, res.h)
				inputs := seqgen.New(seqgen.PedestrianArea, res.w, res.h).Generate(detFrames)

				serialPkts, hdr, err := core.EncodeSequence(id, cfg, inputs)
				if err != nil {
					t.Fatal(err)
				}
				serialFrames, err := core.DecodePackets(hdr, cfg.Kernels, serialPkts)
				if err != nil {
					t.Fatal(err)
				}
				if len(serialFrames) != len(inputs) {
					t.Fatalf("serial decode returned %d of %d frames", len(serialFrames), len(inputs))
				}
				serialPSNR := make([]float64, len(inputs))
				for i := range inputs {
					serialPSNR[i] = metrics.PSNRFrames(inputs[i], serialFrames[i])
				}

				for _, workers := range workerCounts {
					t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
						pkts, phdr, err := core.EncodeSequenceParallel(id, cfg, inputs, workers)
						if err != nil {
							t.Fatal(err)
						}
						if phdr != hdr {
							t.Fatalf("header %+v, serial has %+v", phdr, hdr)
						}
						packetsEqual(t, serialPkts, pkts)

						decoded, err := core.DecodePacketsParallel(hdr, cfg.Kernels, pkts, workers)
						if err != nil {
							t.Fatal(err)
						}
						framesEqual(t, serialFrames, decoded)
						for i := range inputs {
							if psnr := metrics.PSNRFrames(inputs[i], decoded[i]); psnr != serialPSNR[i] {
								t.Fatalf("frame %d: PSNR %.6f, serial has %.6f", i, psnr, serialPSNR[i])
							}
						}
					})
				}
			})
		}
	}
}

// TestParallelInputPTSRestored checks the parallel encoder leaves the
// same side effect on the input frames as the serial path (display
// stamps equal to arrival order), so downstream metrics code sees no
// difference.
func TestParallelInputPTSRestored(t *testing.T) {
	cfg := detConfig(96, 80)
	inputs := seqgen.New(seqgen.RushHour, 96, 80).Generate(detFrames)
	if _, _, err := core.EncodeSequenceParallel(core.MPEG2, cfg, inputs, 4); err != nil {
		t.Fatal(err)
	}
	for i, f := range inputs {
		if f.PTS != i {
			t.Fatalf("input %d: PTS %d after parallel encode, want %d", i, f.PTS, i)
		}
	}
}

// TestParallelNoIntraPeriodFallsBack checks the paper's default coding
// options (first frame only intra) still work at any worker count: there
// are no chunk boundaries, so the pipeline must quietly run serially and
// still produce the serial stream.
func TestParallelNoIntraPeriodFallsBack(t *testing.T) {
	cfg := codec.Default(96, 80)
	cfg.SearchRange = 8
	inputs := seqgen.New(seqgen.BlueSky, 96, 80).Generate(7)
	serial, hdr, err := core.EncodeSequence(core.H264, cfg, inputs)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := core.EncodeSequenceParallel(core.H264, cfg, inputs, 4)
	if err != nil {
		t.Fatal(err)
	}
	packetsEqual(t, serial, par)
	decoded, err := core.DecodePacketsParallel(hdr, cfg.Kernels, par, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(inputs) {
		t.Fatalf("decoded %d of %d frames", len(decoded), len(inputs))
	}
}

// TestDecodePacketsParallelRejectsOpenGOP feeds the open-GOP packets of
// internal/stream's TestDecoderRejectsOpenGOP — a P that displays before
// its segment's I frame — to the batch decoder. It is the streaming
// decoder over a slice, so it must fail with that decoder's clean
// rejection rather than decode the segment some other way.
func TestDecodePacketsParallelRejectsOpenGOP(t *testing.T) {
	hdr := container.Header{Codec: container.CodecMPEG2, Width: 96, Height: 80, FPSNum: 25, FPSDen: 1}
	pkts := []container.Packet{
		{Type: container.FrameI, DisplayIndex: 5, Payload: []byte{1}},
		{Type: container.FrameP, DisplayIndex: 2, Payload: []byte{2}},
	}
	_, err := core.DecodePacketsParallel(hdr, kernel.Scalar, pkts, 4)
	if err == nil || !strings.Contains(err.Error(), "displays before") {
		t.Fatalf("err = %v, want the stream decoder's open-GOP rejection", err)
	}
}
