package codec_test

import (
	"bytes"
	"slices"
	"testing"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/h264"
	"hdvideobench/internal/motion"
	"hdvideobench/internal/mpeg"
	"hdvideobench/internal/pipeline"
	"hdvideobench/internal/seqgen"
)

// TestEncoderResetMatchesFresh: an instance that coded one chunk and was
// Reset codes the next chunk exactly as a new instance does — packets,
// every reconstruction (TapRecon) and the display stamps its motion tap
// reports — over reconGrid's seeded option grid, per codec. Chunk A, a
// different clip, is long enough to fill the reference list and recycle
// frames, so chunk B codes into reconstructions left over from it,
// poisoned by this package's test hook.
func TestEncoderResetMatchesFresh(t *testing.T) {
	const w, h, nA, nB = 96, 80, 13, 11
	for _, f := range []struct {
		name   string
		newEnc func(cfg codec.Config) (reconEncoder, error)
	}{
		{"mpeg2", func(cfg codec.Config) (reconEncoder, error) { return mpeg.NewEncoder(cfg, container.CodecMPEG2) }},
		{"mpeg4", func(cfg codec.Config) (reconEncoder, error) { return mpeg.NewEncoder(cfg, container.CodecMPEG4) }},
		{"h264", func(cfg codec.Config) (reconEncoder, error) { return h264.NewEncoder(cfg) }},
	} {
		for _, c := range reconGrid(29, 16) {
			var taps []int
			cfg := codec.Default(w, h)
			cfg.Q, cfg.Slices, cfg.BFrames, cfg.Refs, cfg.TargetKbps = c.q, c.slices, c.bframes, c.refs, c.kbps
			cfg.SceneCutIntra, cfg.Wavefront, cfg.Kernels = c.sceneCut, c.wavefront, c.encKern
			cfg.MotionTap = func(pts int, _ *motion.Field) { taps = append(taps, pts) }
			if c.vlc {
				cfg.Entropy = codec.EntropyVLC
			}
			// chunkB codes the second chunk on enc, returning its packets,
			// reconstructions in coding order and motion-tap stamps.
			chunkB := func(enc reconEncoder) ([]container.Packet, [][]byte, []int) {
				var recons [][]byte
				enc.TapRecon(func(recon *frame.Frame) { recons = append(recons, visible(recon)) })
				taps = nil
				pkts := encodeFrames(t, enc, seqgen.New(c.seq, w, h).Generate(nA + nB)[nA:])
				return pkts, recons, taps
			}
			newEnc := func() reconEncoder {
				enc, err := f.newEnc(cfg)
				if err != nil {
					t.Fatalf("%s %v: %v", f.name, c, err)
				}
				if c.wavefront {
					gate := pipeline.NewSliceGate(3)
					enc.SetSliceRunner(gate.Run)
					enc.SetWavefrontRunner(gate.Wavefront().Run)
				}
				return enc
			}

			reused := newEnc()
			reused.SetPTSBase(100)
			// A fast pan ahead of chunk B: history that leaks through Reset
			// (scene-cut statistics, rate-control state) shows.
			encodeFrames(t, reused, seqgen.New(seqgen.SportPan, w, h).Generate(nA))
			reused.Reset()
			gotPkts, gotRecons, gotTaps := chunkB(reused)
			wantPkts, wantRecons, wantTaps := chunkB(newEnc())

			if len(gotPkts) != len(wantPkts) {
				t.Fatalf("%s %v: %d packets after Reset, %d fresh", f.name, c, len(gotPkts), len(wantPkts))
			}
			for i, p := range gotPkts {
				q := wantPkts[i]
				if p.Type != q.Type || p.DisplayIndex != q.DisplayIndex || !bytes.Equal(p.Payload, q.Payload) {
					t.Fatalf("%s %v: packet %d after Reset is %c%d (%d bytes), fresh %c%d (%d bytes)",
						f.name, c, i, p.Type, p.DisplayIndex, len(p.Payload), q.Type, q.DisplayIndex, len(q.Payload))
				}
				if where := firstDiff(gotRecons[i], wantRecons[i], w, h); where != "" {
					t.Fatalf("%s %v: %c frame %d: reconstruction after Reset differs from fresh at %s",
						f.name, c, p.Type, p.DisplayIndex, where)
				}
			}
			if !slices.Equal(gotTaps, wantTaps) {
				t.Fatalf("%s %v: motion tap stamps %v after Reset, %v fresh", f.name, c, gotTaps, wantTaps)
			}
		}
	}
}
