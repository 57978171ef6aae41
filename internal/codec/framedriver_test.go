package codec_test

// Tests of the frame drivers against a toy slice coder that writes its
// own arguments as its "bitstream", so every field of a payload and every
// driver decision is checked against a value the test worked out itself —
// a driver change fails here with one line naming what it broke, ahead of
// the golden-digest matrix reporting forty mismatches.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hdvideobench/internal/codec"
	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/motion"
)

// toy is the slice coder: slice i's bitstream is a line of text naming
// what the driver passed (padded by 40·i bytes so slices spend unevenly
// and the rate controller has something to rebalance), its quantizer
// scale is the MPEG one plus 100, and like a real slice decoder it cannot
// decode a slice out of no bits.
type toy struct {
	refs  []int // references visible at each BeginFrame
	sawWF bool  // the last EncodeSlice was handed a wavefront runner
}

const toyCodec = container.CodecMPEG2

func (t *toy) WireQ(q int) int                            { return q + 100 }
func (t *toy) BeginFrame(refs *codec.RefList, slices int) { t.refs = append(t.refs, refs.Len()) }
func (t *toy) EndFrame(recon *frame.Frame, q int)         { recon.Y[recon.YOrigin] = byte(q) }
func (t *toy) NewReference(*frame.Frame)                  {}

func toyBits(i int, ftype container.FrameType, span codec.SliceSpan, q, pts, refs int, tap, hint bool) []byte {
	s := fmt.Sprintf("slice %d %c rows %d+%d q%d pts%d refs%d tap=%v hint=%v", i, ftype, span.Row, span.Rows, q, pts, refs, tap, hint)
	return append([]byte(s), bytes.Repeat([]byte{'.'}, 40*i)...)
}

func (t *toy) EncodeSlice(i int, src, recon *frame.Frame, ftype container.FrameType, span codec.SliceSpan,
	q int, wf codec.WavefrontRunner, tap, hint *motion.Field) []byte {
	if tap != nil {
		tap.Set(0, span.Row, motion.MV{X: int16(src.PTS)})
	}
	t.sawWF = wf != nil
	return toyBits(i, ftype, span, q, src.PTS, t.refs[len(t.refs)-1], tap != nil, hint != nil)
}

func (t *toy) DecodeSlice(i int, bits []byte, recon *frame.Frame, ftype container.FrameType, span codec.SliceSpan, q int) error {
	if len(bits) == 0 {
		return errors.New("no bits")
	}
	return nil
}

func toyConfig(w, h int) codec.Config {
	cfg := codec.Default(w, h)
	cfg.BFrames = 0
	return cfg
}

func newToyEncoder(t *testing.T, cfg codec.Config, maxRefs int) (*codec.FrameEncoder, *toy) {
	t.Helper()
	ty := &toy{}
	enc, err := codec.NewFrameEncoder("toy", cfg, toyCodec, 0, maxRefs, ty)
	if err != nil {
		t.Fatal(err)
	}
	return enc, ty
}

// encodeAll feeds n blank frames (luma level lumaOf(i), default 0) and
// flushes, returning the packets in coding order.
func encodeAll(t *testing.T, enc codec.Encoder, w, h, n int, lumaOf func(i int) byte) []container.Packet {
	t.Helper()
	frames := make([]*frame.Frame, n)
	for i := range frames {
		frames[i] = frame.New(w, h)
		if lumaOf != nil {
			for j := range frames[i].Y {
				frames[i].Y[j] = lumaOf(i)
			}
		}
	}
	return encodeFrames(t, enc, frames)
}

// encodeFrames encodes frames and flushes.
func encodeFrames(t *testing.T, enc codec.Encoder, frames []*frame.Frame) []container.Packet {
	t.Helper()
	var pkts []container.Packet
	for _, f := range frames {
		ps, err := enc.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, ps...)
	}
	ps, err := enc.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return append(pkts, ps...)
}

// TestFrameDriverPayloadLayout checks every payload byte for slices
// {1, 3} × rate control {off, on}: quantizer byte, slice table, sizes, the
// FlagSliceQ prefixes — and, with rate control on, that the controller
// was fed 8 × payload bytes and the coded slice sizes, by running a second
// controller on exactly that feedback and requiring the same state.
func TestFrameDriverPayloadLayout(t *testing.T) {
	const w, h, n = 16, 48, 6
	for _, slices := range []int{1, 3} {
		for _, kbps := range []int{0, 15*slices + 1} { // lands the toy's quantizers mid-scale
			t.Run(fmt.Sprintf("slices=%d/kbps=%d", slices, kbps), func(t *testing.T) {
				cfg := toyConfig(w, h)
				cfg.Slices, cfg.TargetKbps, cfg.Q = slices, kbps, 7
				enc, _ := newToyEncoder(t, cfg, 2)
				wantFlags := uint16(0)
				if cfg.SliceQ() {
					wantFlags = container.FlagSliceQ
				}
				if hdr := enc.Header(); hdr.Flags != wantFlags || hdr.Codec != toyCodec || hdr.Width != w || hdr.Height != h {
					t.Fatalf("header %+v, want flags %#x", hdr, wantFlags)
				}
				rc := codec.NewRateController(cfg) // the model; nil when kbps == 0
				qs := map[int]bool{}               // every quantizer byte written, frame or slice
				refs := 0
				for k := 0; k < n; k++ {
					ps, err := enc.Encode(frame.New(w, h)) // no B frames: one packet each
					if err != nil || len(ps) != 1 {
						t.Fatalf("frame %d: %d packets, %v", k, len(ps), err)
					}
					p := ps[0]
					ftype := container.FrameP
					if k == 0 {
						ftype, refs = container.FrameI, 0
					}
					if p.Type != ftype || p.DisplayIndex != k {
						t.Fatalf("packet %d: type %c display %d", k, p.Type, p.DisplayIndex)
					}
					q, sliceQs := cfg.Q, []int(nil)
					if rc != nil {
						q = rc.FrameQ(ftype)
						if cfg.SliceQ() {
							sliceQs = rc.SliceQs(q, slices)
						}
					}
					qs[q] = true
					spans := codec.SliceRows(h/16, slices)
					var bodies [][]byte
					for i := range spans {
						sq := q
						var body []byte
						if sliceQs != nil {
							sq = sliceQs[i]
							body = []byte{byte(sq + 100)}
							qs[sq] = true
						}
						body = append(body, toyBits(i, ftype, spans[i], sq+100, k, refs, false, false)...)
						spans[i].Size = len(body)
						bodies = append(bodies, body)
					}
					want := codec.AppendSliceTable([]byte{byte(q + 100)}, spans)
					want = append(want, bytes.Join(bodies, nil)...)
					if !bytes.Equal(p.Payload, want) {
						t.Fatalf("packet %d payload\n got %q\nwant %q", k, p.Payload, want)
					}
					if rc != nil {
						rc.AddFrame(ftype, 8*len(want))
						if sliceQs != nil {
							rc.AddSlices(spans)
						}
						if got := enc.Controller(); !reflect.DeepEqual(got, rc) {
							t.Fatalf("after packet %d the controller holds %+v, fed 8 × bytes it would hold %+v", k, *got, *rc)
						}
					}
					refs = min(refs+1, 2)
				}
				if rc != nil && len(qs) < 3 {
					t.Fatalf("the controller barely moved the quantizer (%v): the check is vacuous", qs)
				}
			})
		}
	}
}

// TestFrameDriverGOP checks I/P/B typing, coding order and what the
// reference list holds when each frame begins — in particular that it is
// emptied at every I frame, periodic or scene-cut — for BFrames {0, 2} ×
// IntraPeriod {0, 4}, with and without a cut.
func TestFrameDriverGOP(t *testing.T) {
	const w, h = 16, 16
	for _, tc := range []struct {
		bframes, period, cut, n int // cut: first frame of the second shot (0: none)
		want                    string
	}{
		{0, 0, 0, 4, "I0/0 P1/1 P2/2 P3/2"},
		{0, 4, 0, 6, "I0/0 P1/1 P2/2 P3/2 I4/0 P5/1"},
		{2, 0, 0, 7, "I0/0 P3/1 B1/2 B2/2 P6/2 B4/2 B5/2"},
		{2, 0, 0, 6, "I0/0 P3/1 B1/2 B2/2 P4/2 P5/2"},
		{2, 4, 0, 8, "I0/0 P3/1 B1/2 B2/2 I4/0 P7/1 B5/2 B6/2"},
		{2, 4, 0, 7, "I0/0 P3/1 B1/2 B2/2 I4/0 P5/1 P6/2"},
		{0, 0, 3, 5, "I0/0 P1/1 P2/2 I3/0 P4/1"},
		{2, 0, 5, 8, "I0/0 P3/1 B1/2 B2/2 P4/2 I5/0 P6/1 P7/2"},
		{2, 4, 2, 6, "I0/0 P1/1 I2/0 P3/1 I4/0 P5/1"},
	} {
		t.Run(fmt.Sprintf("b=%d/period=%d/cut=%d/n=%d", tc.bframes, tc.period, tc.cut, tc.n), func(t *testing.T) {
			cfg := toyConfig(w, h)
			cfg.BFrames, cfg.IntraPeriod, cfg.SceneCutIntra = tc.bframes, tc.period, tc.cut > 0
			enc, ty := newToyEncoder(t, cfg, 2)
			pkts := encodeAll(t, enc, w, h, tc.n, func(i int) byte {
				if tc.cut > 0 && i >= tc.cut {
					return 200
				}
				return 20
			})
			var got []string
			for k, p := range pkts {
				got = append(got, fmt.Sprintf("%c%d/%d", p.Type, p.DisplayIndex, ty.refs[k]))
			}
			if s := strings.Join(got, " "); s != tc.want {
				t.Errorf("coding order type+display/refs\n got %s\nwant %s", s, tc.want)
			}
		})
	}
}

// TestFrameDriverMotionCallbacks: after SetPTSBase the packets carry
// display indices counted from the base, the tap and hint callbacks key
// on those same indices, and neither fires for an I frame — whose slices
// see neither field.
func TestFrameDriverMotionCallbacks(t *testing.T) {
	const w, h, base = 16, 16, 100
	var taps, hints []int
	cfg := toyConfig(w, h)
	cfg.BFrames, cfg.IntraPeriod = 2, 4
	cfg.MotionTap = func(pts int, f *motion.Field) {
		if got := int(f.MVs[0].X); got != pts {
			t.Errorf("tap at %d carries the field of display index %d", pts, got)
		}
		taps = append(taps, pts)
	}
	cfg.MotionHints = func(pts int) *motion.Field {
		hints = append(hints, pts)
		if pts%2 == 0 {
			return motion.NewField(w, h)
		}
		return nil
	}
	enc, _ := newToyEncoder(t, cfg, 2)
	enc.SetPTSBase(base)
	want := []int{103, 101, 102, 105, 106} // coding order, I100 and I104 absent
	var shown []int
	for _, p := range encodeAll(t, enc, w, h, 7, nil) {
		shown = append(shown, p.DisplayIndex)
		body := string(p.Payload[1+codec.SliceTableSize(1):])
		inter := p.Type != container.FrameI
		hinted := inter && p.DisplayIndex%2 == 0
		if wantSuffix := fmt.Sprintf("tap=%v hint=%v", inter, hinted); !strings.HasSuffix(body, wantSuffix) {
			t.Errorf("%c%d: slice saw %q, want …%s", p.Type, p.DisplayIndex, body, wantSuffix)
		}
	}
	if fmt.Sprint(taps) != fmt.Sprint(want) || fmt.Sprint(hints) != fmt.Sprint(want) {
		t.Errorf("taps %v hints %v, want both %v", taps, hints, want)
	}
	if slices.Sort(shown); fmt.Sprint(shown) != "[100 101 102 103 104 105 106]" {
		t.Errorf("packets display %v, want 100…106", shown)
	}
}

// TestFrameDriverWavefrontGate: an installed wavefront runner reaches the
// slices only when Config.Wavefront asks for it.
func TestFrameDriverWavefrontGate(t *testing.T) {
	for _, on := range []bool{false, true} {
		cfg := toyConfig(16, 16)
		cfg.Wavefront = on
		enc, ty := newToyEncoder(t, cfg, 2)
		enc.SetWavefrontRunner(codec.SerialWavefront)
		encodeAll(t, enc, 16, 16, 1, nil)
		if ty.sawWF != on {
			t.Errorf("Wavefront=%v: slice handed a runner: %v", on, ty.sawWF)
		}
	}
}

// TestFrameDriverRejectsWrongSize: the one error Encode can return.
func TestFrameDriverRejectsWrongSize(t *testing.T) {
	enc, _ := newToyEncoder(t, toyConfig(16, 16), 2)
	if _, err := enc.Encode(frame.New(32, 16)); err == nil || !strings.HasPrefix(err.Error(), "toy: frame is 32x16") {
		t.Fatalf("err = %v", err)
	}
	if _, err := codec.NewFrameEncoder("toy", codec.Config{}, toyCodec, 0, 2, &toy{}); err == nil || !strings.HasPrefix(err.Error(), "toy: codec:") {
		t.Fatalf("err = %v", err)
	}
}

// TestFrameDriverDecodeRoundTrip: the decoder driver hands every slice
// the bytes and quantizer the encoder driver wrote for it, updates
// references like the encoder did, calls EndFrame before the borders are
// extended, and delivers frames in display order.
func TestFrameDriverDecodeRoundTrip(t *testing.T) {
	const w, h = 16, 48
	cfg := toyConfig(w, h)
	cfg.BFrames, cfg.Slices, cfg.TargetKbps = 2, 3, 20
	enc, _ := newToyEncoder(t, cfg, 2)
	rec := &recordingToy{}
	dec, err := codec.NewFrameDecoder("toy", enc.Header(), toyCodec, 101, 131, 2, rec)
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	for _, p := range encodeAll(t, enc, w, h, 7, nil) {
		before := len(rec.decoded)
		fs, err := dec.Decode(p)
		if err != nil {
			t.Fatal(err)
		}
		spans, off, err := codec.ParseSliceTable(p.Payload[1:], h/16)
		if err != nil {
			t.Fatal(err)
		}
		body := p.Payload[1+off:]
		for i, s := range spans {
			want := fmt.Sprintf("%d:%d:%s", i, body[0], body[1:s.Size])
			if got := rec.decoded[before+i]; got != want {
				t.Errorf("%c%d slice %d decoded %q, want %q", p.Type, p.DisplayIndex, i, got, want)
			}
			if refs := rec.refs[len(rec.refs)-1]; !strings.Contains(want, fmt.Sprintf("refs%d ", refs)) {
				t.Errorf("%c%d: decoder saw %d references, encoder wrote %q", p.Type, p.DisplayIndex, refs, want)
			}
			body = body[s.Size:]
		}
		for _, f := range fs {
			out = append(out, f.PTS)
			// EndFrame stored q in the first pixel; ExtendBorders then
			// copied it into the corner of the padding.
			if f.Y[0] != p.Payload[0] && f.PTS == p.DisplayIndex {
				t.Errorf("frame %d: border %d, EndFrame wrote %d", f.PTS, f.Y[0], p.Payload[0])
			}
		}
	}
	for _, f := range dec.Flush() {
		out = append(out, f.PTS)
	}
	if fmt.Sprint(out) != "[0 1 2 3 4 5 6]" {
		t.Errorf("display order %v", out)
	}
}

// recordingToy is toy as a decoder that keeps what it was handed.
type recordingToy struct {
	toy
	decoded []string // "i:q:bits" per DecodeSlice, frame after frame
}

func (r *recordingToy) DecodeSlice(i int, bits []byte, recon *frame.Frame, ftype container.FrameType, span codec.SliceSpan, q int) error {
	r.decoded = append(r.decoded, fmt.Sprintf("%d:%d:%s", i, q, bits))
	return nil
}

// TestFrameDriverReorderBound: packets that never carry the display index
// the reorderer waits for are refused once MaxReorderDepth frames are
// parked, instead of parking one padded frame per packet without end, and
// what was parked still comes out of Flush in order.
func TestFrameDriverReorderBound(t *testing.T) {
	dec, err := codec.NewFrameDecoder("toy", container.Header{Codec: toyCodec, Width: 16, Height: 16}, toyCodec, 1, 31, 2, &toy{})
	if err != nil {
		t.Fatal(err)
	}
	payload := append(codec.AppendSliceTable([]byte{5}, []codec.SliceSpan{{Rows: 1, Size: 1}}), 'x')
	for idx := codec.MaxReorderDepth; idx >= 1; idx-- {
		if fs, err := dec.Decode(container.Packet{Type: container.FrameI, DisplayIndex: idx, Payload: payload}); err != nil || len(fs) != 0 {
			t.Fatalf("index %d: %d frames, %v", idx, len(fs), err)
		}
	}
	_, err = dec.Decode(container.Packet{Type: container.FrameI, DisplayIndex: 99, Payload: payload})
	if err == nil || !strings.Contains(err.Error(), "frames waiting for display index 0") {
		t.Fatalf("frame %d past the bound: %v", codec.MaxReorderDepth+1, err)
	}
	fs := dec.Flush()
	if len(fs) != codec.MaxReorderDepth {
		t.Fatalf("flushed %d frames", len(fs))
	}
	for i, f := range fs {
		if f.PTS != i+1 {
			t.Fatalf("flushed frame %d has PTS %d", i, f.PTS)
		}
	}
}

// TestRefListAllocatesOnce: the list shifts inside one backing array.
func TestRefListAllocatesOnce(t *testing.T) {
	l := codec.RefList{Max: 3}
	f := frame.New(16, 16)
	l.Add(f)
	if n := testing.AllocsPerRun(50, func() { l.Add(f) }); n != 0 {
		t.Errorf("%v allocations per Add", n)
	}
	l.Reset(nil)
	if n := testing.AllocsPerRun(50, func() { l.Add(f) }); n != 0 || l.Len() != 3 {
		t.Errorf("after Reset: %v allocations per Add, %d references", n, l.Len())
	}
}
