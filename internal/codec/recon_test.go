package codec_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/h264"
	"hdvideobench/internal/kernel"
	"hdvideobench/internal/mpeg"
	"hdvideobench/internal/pipeline"
	"hdvideobench/internal/seqgen"
)

// reconCase is one point of the coding-option grid TestReconEqualsDecode
// samples. refs and vlc only reach H.264.
type reconCase struct {
	seq                            seqgen.Sequence
	q, slices, bframes, refs, kbps int
	sceneCut, vlc, wavefront       bool
	encKern, decKern               kernel.Set
}

func (c reconCase) String() string {
	return fmt.Sprintf("%v q=%d slices=%d bframes=%d refs=%d kbps=%d scenecut=%v vlc=%v wavefront=%v enc=%v dec=%v",
		c.seq, c.q, c.slices, c.bframes, c.refs, c.kbps, c.sceneCut, c.vlc, c.wavefront, c.encKern, c.decKern)
}

// reconGrid draws n cases (n even) from a seeded generator so that every
// two-valued axis takes each of its values in exactly half of them.
func reconGrid(seed int64, n int) []reconCase {
	rng := rand.New(rand.NewSource(seed))
	half := func() func(i int) bool {
		perm := rng.Perm(n)
		return func(i int) bool { return perm[i]%2 == 1 }
	}
	pick := func(b bool, off, on int) int {
		if b {
			return on
		}
		return off
	}
	kern := func(swar bool) kernel.Set {
		if swar {
			return kernel.SWAR
		}
		return kernel.Scalar
	}
	slices, bframes, refs, kbps, cut, vlc, wf, enc, dec := half(), half(), half(), half(), half(), half(), half(), half(), half()
	plain := []seqgen.Sequence{seqgen.BlueSky, seqgen.PedestrianArea, seqgen.Riverbed, seqgen.RushHour, seqgen.SportPan, seqgen.FilmGrain}
	qs := []int{2, 3, 5, 8, 13, 20, 31}
	cases := make([]reconCase, n)
	for i := range cases {
		c := reconCase{
			seq:       plain[rng.Intn(len(plain))],
			q:         qs[rng.Intn(len(qs))],
			slices:    pick(slices(i), 1, 3),
			bframes:   pick(bframes(i), 0, 2),
			refs:      pick(refs(i), 2, 4),
			kbps:      pick(kbps(i), 0, 150+rng.Intn(300)),
			sceneCut:  cut(i),
			vlc:       vlc(i),
			wavefront: wf(i),
			encKern:   kern(enc(i)),
			decKern:   kern(dec(i)),
		}
		if c.sceneCut {
			c.seq = seqgen.SceneCut // a clip with a cut for the detector to find
		}
		cases[i] = c
	}
	return cases
}

// TestReconEqualsDecode is the property the codecs exist for: every frame
// an encoder reconstructs — after its EndFrame, so deblocked for H.264 —
// is byte for byte the frame its decoder outputs at that display index.
// Each codec runs a seeded, balanced sample of quantizer × slices {1,3} ×
// B frames {0,2} × references {2,4} × rate control {off, on} × scene-cut
// I frames × CABAC/VLC × encoder and decoder kernel sets × wavefront, on
// 24 frames — long enough for an IDCT or MC mismatch to drift through a
// chain of P frames. A failure names the codec, the case and the frame.
func TestReconEqualsDecode(t *testing.T) {
	const w, h, n = 96, 80, 24
	for _, f := range []struct {
		name   string
		newEnc func(cfg codec.Config) (reconEncoder, error)
		newDec func(hdr container.Header, k kernel.Set) (codec.Decoder, error)
	}{
		{"mpeg2",
			func(cfg codec.Config) (reconEncoder, error) { return mpeg.NewEncoder(cfg, container.CodecMPEG2) },
			func(hdr container.Header, k kernel.Set) (codec.Decoder, error) { return mpeg.NewDecoder(hdr, k) }},
		{"mpeg4",
			func(cfg codec.Config) (reconEncoder, error) { return mpeg.NewEncoder(cfg, container.CodecMPEG4) },
			func(hdr container.Header, k kernel.Set) (codec.Decoder, error) { return mpeg.NewDecoder(hdr, k) }},
		{"h264",
			func(cfg codec.Config) (reconEncoder, error) { return h264.NewEncoder(cfg) },
			func(hdr container.Header, k kernel.Set) (codec.Decoder, error) { return h264.NewDecoder(hdr, k) }},
	} {
		for _, c := range reconGrid(23, 16) {
			cfg := codec.Default(w, h)
			cfg.Q, cfg.Slices, cfg.BFrames, cfg.Refs, cfg.TargetKbps = c.q, c.slices, c.bframes, c.refs, c.kbps
			cfg.SceneCutIntra, cfg.Wavefront, cfg.Kernels = c.sceneCut, c.wavefront, c.encKern
			if c.vlc {
				cfg.Entropy = codec.EntropyVLC
			}
			enc, err := f.newEnc(cfg)
			if err != nil {
				t.Fatalf("%s %v: %v", f.name, c, err)
			}
			if c.wavefront {
				gate := pipeline.NewSliceGate(3)
				enc.SetSliceRunner(gate.Run)
				enc.SetWavefrontRunner(gate.Wavefront().Run)
			}
			recons := map[int][]byte{}
			enc.TapRecon(func(recon *frame.Frame) { recons[recon.PTS] = visible(recon) })
			pkts := encodeFrames(t, enc, seqgen.New(c.seq, w, h).Generate(n))

			dec, err := f.newDec(enc.Header(), c.decKern)
			if err != nil {
				t.Fatalf("%s %v: %v", f.name, c, err)
			}
			decoded := map[int][]byte{}
			for _, p := range pkts {
				fs, err := dec.Decode(p)
				if err != nil {
					t.Fatalf("%s %v: %c%d: %v", f.name, c, p.Type, p.DisplayIndex, err)
				}
				for _, d := range fs {
					decoded[d.PTS] = visible(d)
				}
			}
			for _, d := range dec.Flush() {
				decoded[d.PTS] = visible(d)
			}
			if len(decoded) != n || len(recons) != n {
				t.Fatalf("%s %v: %d frames decoded, %d reconstructed, want %d", f.name, c, len(decoded), len(recons), n)
			}
			for _, p := range pkts { // coding order: the first frame named is where a drift starts
				if where := firstDiff(recons[p.DisplayIndex], decoded[p.DisplayIndex], w, h); where != "" {
					t.Errorf("%s %v: %c frame %d: encoder reconstruction and decoder output differ at %s",
						f.name, c, p.Type, p.DisplayIndex, where)
					break
				}
			}
		}
	}
}

// reconEncoder is a codec's encoder as the test drives it: the driver's
// Encoder plus its reconstruction tap.
type reconEncoder interface {
	codec.Encoder
	TapRecon(fn func(recon *frame.Frame))
}

// visible returns f's picture area as raw I420.
func visible(f *frame.Frame) []byte {
	var b bytes.Buffer
	f.WriteRaw(&b)
	return b.Bytes()
}

// firstDiff locates the first sample at which two raw I420 pictures of
// w×h differ ("" when they are equal).
func firstDiff(a, b []byte, w, h int) string {
	if len(a) != len(b) {
		return fmt.Sprintf("size: %d vs %d bytes", len(a), len(b))
	}
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		plane, pw, j := "Y", w, i
		switch {
		case i >= w*h*5/4:
			plane, pw, j = "Cr", w/2, i-w*h*5/4
		case i >= w*h:
			plane, pw, j = "Cb", w/2, i-w*h
		}
		return fmt.Sprintf("%s (%d,%d): %d vs %d", plane, j%pw, j/pw, a[i], b[i])
	}
	return ""
}
