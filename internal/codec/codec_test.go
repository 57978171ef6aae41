package codec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"hdvideobench/internal/container"
	"hdvideobench/internal/frame"
	"hdvideobench/internal/kernel"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := Default(1280, 720)
	if c.Q != 5 {
		t.Errorf("Q = %d, want 5 (vqscale=5)", c.Q)
	}
	if c.BFrames != 2 {
		t.Errorf("BFrames = %d, want 2 (I-P-B-B)", c.BFrames)
	}
	if c.IntraPeriod != 0 {
		t.Errorf("IntraPeriod = %d, want 0 (only first frame intra)", c.IntraPeriod)
	}
	if c.SearchRange != 24 {
		t.Errorf("SearchRange = %d, want 24 (x264 --merange 24)", c.SearchRange)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Config{
		{Width: 0, Height: 16, Q: 5, BFrames: 2, SearchRange: 16, Refs: 1, FPSNum: 25, FPSDen: 1},
		{Width: 100, Height: 100, Q: 5, BFrames: 2, SearchRange: 16, Refs: 1, FPSNum: 25, FPSDen: 1},
		{Width: 64, Height: 64, Q: 0, BFrames: 2, SearchRange: 16, Refs: 1, FPSNum: 25, FPSDen: 1},
		{Width: 64, Height: 64, Q: 5, BFrames: 9, SearchRange: 16, Refs: 1, FPSNum: 25, FPSDen: 1},
		{Width: 64, Height: 64, Q: 5, BFrames: 2, SearchRange: 99, Refs: 1, FPSNum: 25, FPSDen: 1},
		{Width: 64, Height: 64, Q: 5, BFrames: 2, SearchRange: 16, Refs: 0, FPSNum: 25, FPSDen: 1},
		{Width: 64, Height: 64, Q: 5, BFrames: 2, SearchRange: 16, Refs: 1, FPSNum: 0, FPSDen: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func mkFrame(pts int) *frame.Frame {
	f := frame.New(16, 16)
	f.PTS = pts
	return f
}

func TestGOPSchedulerIPBB(t *testing.T) {
	g := &GOPScheduler{BFrames: 2}
	var order []GOPEntry
	for i := 0; i < 7; i++ {
		order = append(order, g.Push(mkFrame(i))...)
	}
	order = append(order, g.Flush()...)

	wantTypes := []container.FrameType{'I', 'P', 'B', 'B', 'P', 'B', 'B'}
	wantPTS := []int{0, 3, 1, 2, 6, 4, 5}
	if len(order) != len(wantTypes) {
		t.Fatalf("got %d entries, want %d", len(order), len(wantTypes))
	}
	for i, e := range order {
		if e.Type != wantTypes[i] || e.Frame.PTS != wantPTS[i] {
			t.Errorf("entry %d: type %c pts %d, want %c pts %d",
				i, e.Type, e.Frame.PTS, wantTypes[i], wantPTS[i])
		}
	}
}

func TestGOPSchedulerTrailingBs(t *testing.T) {
	g := &GOPScheduler{BFrames: 2}
	var order []GOPEntry
	for i := 0; i < 5; i++ { // I P B B + one trailing candidate
		order = append(order, g.Push(mkFrame(i))...)
	}
	order = append(order, g.Flush()...)
	// Display 4 has no backward reference → coded as P at flush.
	last := order[len(order)-1]
	if last.Type != container.FrameP || last.Frame.PTS != 4 {
		t.Errorf("trailing frame: type %c pts %d", last.Type, last.Frame.PTS)
	}
}

func TestGOPSchedulerNoBFrames(t *testing.T) {
	g := &GOPScheduler{BFrames: 0}
	var order []GOPEntry
	for i := 0; i < 4; i++ {
		order = append(order, g.Push(mkFrame(i))...)
	}
	for i, e := range order {
		if e.Frame.PTS != i {
			t.Errorf("entry %d: pts %d", i, e.Frame.PTS)
		}
		wantT := container.FrameP
		if i == 0 {
			wantT = container.FrameI
		}
		if e.Type != wantT {
			t.Errorf("entry %d: type %c", i, e.Type)
		}
	}
}

func TestGOPSchedulerIntraPeriod(t *testing.T) {
	g := &GOPScheduler{BFrames: 0, IntraPeriod: 3}
	var types []container.FrameType
	for i := 0; i < 7; i++ {
		for _, e := range g.Push(mkFrame(i)) {
			types = append(types, e.Type)
		}
	}
	want := []container.FrameType{'I', 'P', 'P', 'I', 'P', 'P', 'I'}
	for i := range want {
		if types[i] != want[i] {
			t.Errorf("frame %d: %c, want %c", i, types[i], want[i])
		}
	}
}

func TestGOPSchedulerClosedGOP(t *testing.T) {
	// IntraPeriod with B frames must produce *closed* GOPs: the B
	// candidates buffered when a refresh arrives are coded as trailing P
	// pictures before the I, so nothing references across the boundary
	// and each intra period is an independently codable chunk.
	g := &GOPScheduler{BFrames: 2, IntraPeriod: 6}
	var order []GOPEntry
	for i := 0; i < 12; i++ {
		order = append(order, g.Push(mkFrame(i))...)
	}
	order = append(order, g.Flush()...)
	wantTypes := []container.FrameType{'I', 'P', 'B', 'B', 'P', 'P', 'I', 'P', 'B', 'B', 'P', 'P'}
	wantPTS := []int{0, 3, 1, 2, 4, 5, 6, 9, 7, 8, 10, 11}
	if len(order) != len(wantTypes) {
		t.Fatalf("got %d entries, want %d", len(order), len(wantTypes))
	}
	for i, e := range order {
		if e.Type != wantTypes[i] || e.Frame.PTS != wantPTS[i] {
			t.Errorf("entry %d: type %c pts %d, want %c pts %d",
				i, e.Type, e.Frame.PTS, wantTypes[i], wantPTS[i])
		}
	}
}

func TestDisplayReorderer(t *testing.T) {
	var d DisplayReorderer
	// Coding order 0,3,1,2 (IPBB) must come out 0,1,2,3.
	var got []int
	for _, pts := range []int{0, 3, 1, 2} {
		for _, f := range d.Add(mkFrame(pts)) {
			got = append(got, f.PTS)
		}
	}
	want := []int{0, 1, 2, 3}
	if len(got) != 4 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestDisplayReordererFlushWithGap(t *testing.T) {
	var d DisplayReorderer
	d.Add(mkFrame(0))
	d.Add(mkFrame(2)) // 1 missing (truncated stream)
	out := d.Flush()
	if len(out) != 1 || out[0].PTS != 2 {
		t.Fatalf("flush = %v", out)
	}
}

func TestRefList(t *testing.T) {
	l := RefList{Max: 2}
	a, b, c := mkFrame(0), mkFrame(1), mkFrame(2)
	if l.Add(a) != nil || l.Add(b) != nil {
		t.Fatal("a filling list dropped a frame")
	}
	if got := l.Add(c); got != a {
		t.Fatalf("Add dropped %v, want the oldest", got)
	}
	if l.Len() != 2 {
		t.Fatalf("len = %d", l.Len())
	}
	if l.Get(0) != c || l.Get(1) != b {
		t.Fatal("wrong eviction order")
	}
	free := []*frame.Frame{a}
	l.Reset(&free)
	if l.Len() != 0 {
		t.Fatal("reset failed")
	}
	if len(free) != 3 || free[0] != a || free[1] != c || free[2] != b {
		t.Fatal("Reset did not append the dropped frames, most recent first")
	}
}

func TestBlockHelpers(t *testing.T) {
	plane := make([]byte, 32*32)
	for i := range plane {
		plane[i] = byte(i)
	}
	var blk [64]int32
	LoadBlock8(&blk, plane, 5*32+3, 32)
	if blk[0] != int32(plane[5*32+3]) || blk[63] != int32(plane[12*32+10]) {
		t.Fatal("LoadBlock8 wrong samples")
	}

	pred := make([]byte, 8*8)
	for i := range pred {
		pred[i] = 100
	}
	for _, k := range []kernel.Set{kernel.Scalar, kernel.SWAR} {
		var res [64]int32
		Residual8(&res, plane, 0, 32, pred, 0, 8, k)
		if res[0] != int32(plane[0])-100 {
			t.Fatalf("%v Residual8: %d", k, res[0])
		}

		out := make([]byte, 8*8)
		for i := range res {
			res[i] = 300 // force clipping
		}
		Add8Clip(out, 0, 8, pred, 0, 8, &res, k)
		if out[0] != 255 {
			t.Fatalf("%v Add8Clip must clip to 255, got %d", k, out[0])
		}
		for i := range res {
			res[i] = -300
		}
		Add8Clip(out, 0, 8, pred, 0, 8, &res, k)
		if out[0] != 0 {
			t.Fatalf("%v Add8Clip must clip to 0, got %d", k, out[0])
		}

		var blk4 [16]int32
		Residual4(&blk4, plane, 0, 32, pred, 0, 8, k)
		if blk4[15] != int32(plane[3*32+3])-100 {
			t.Fatalf("%v Residual4 wrong", k)
		}
	}
}

// TestBlockHelpersKernelEquivalence pins scalar/SWAR bit-exactness of the
// residual helpers on random content, and checks the reconstruction
// helpers under both kernel sets against refAddClip.
func TestBlockHelpersKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cur := make([]byte, 32*32)
	pred := make([]byte, 16*16)
	for trial := 0; trial < 50; trial++ {
		for i := range cur {
			cur[i] = byte(rng.Intn(256))
		}
		for i := range pred {
			pred[i] = byte(rng.Intn(256))
		}
		var r8s, r8w [64]int32
		Residual8(&r8s, cur, 7, 32, pred, 3, 16, kernel.Scalar)
		Residual8(&r8w, cur, 7, 32, pred, 3, 16, kernel.SWAR)
		if r8s != r8w {
			t.Fatal("Residual8 scalar/SWAR diverge")
		}
		var r4s, r4w [16]int32
		Residual4(&r4s, cur, 5, 32, pred, 1, 16, kernel.Scalar)
		Residual4(&r4w, cur, 5, 32, pred, 1, 16, kernel.SWAR)
		if r4s != r4w {
			t.Fatal("Residual4 scalar/SWAR diverge")
		}
		var res8 [64]int32
		for i := range res8 {
			res8[i] = int32(rng.Intn(1400) - 700)
		}
		want := make([]byte, 32*32)
		refAddClip(want, 9, 32, pred, 2, 16, res8[:], 8)
		out := make([]byte, 32*32)
		for _, k := range []kernel.Set{kernel.Scalar, kernel.SWAR} {
			clear(out)
			Add8Clip(out, 9, 32, pred, 2, 16, &res8, k)
			if !bytes.Equal(out, want) {
				t.Fatalf("%v Add8Clip diverges from the reference", k)
			}
		}
		var res4 [16]int32
		for i := range res4 {
			res4[i] = int32(rng.Intn(1400) - 700)
		}
		refAddClip(want, 11, 32, pred, 6, 16, res4[:], 4)
		Add4Clip(out, 11, 32, pred, 6, 16, &res4)
		if !bytes.Equal(out, want) {
			t.Fatal("Add4Clip diverges from the reference")
		}
	}
}

// refAddClip is the specification of Add8Clip (w 8) and Add4Clip (w 4):
// each sample of the w×w block at off is pred + res, summed without
// overflow and clamped to [0, 255].
func refAddClip(plane []byte, off, stride int, pred []byte, po, pStride int, res []int32, w int) {
	for r := 0; r < w; r++ {
		for c := 0; c < w; c++ {
			v := int64(pred[po+r*pStride+c]) + int64(res[r*w+c])
			plane[off+r*stride+c] = byte(max(0, min(v, 255)))
		}
	}
}

// TestAddClipReference checks Add8Clip under both kernel sets and Add4Clip
// against refAddClip at odd offsets and strides: every prediction 0..255
// against every residual -1024..1023, and against the int32 extremes. The
// samples around each block must stay untouched.
func TestAddClipReference(t *testing.T) {
	extremes := []int32{math.MinInt32, math.MinInt32 + 1, math.MinInt32 + 255,
		math.MaxInt32 - 255, math.MaxInt32 - 1, math.MaxInt32}
	var preds []byte
	var res []int32
	for p := 0; p < 256; p++ {
		for r := int32(-1024); r < 1024; r++ {
			preds = append(preds, byte(p))
			res = append(res, r)
		}
		for _, r := range extremes {
			preds = append(preds, byte(p))
			res = append(res, r)
		}
	}
	const (
		stride, off   = 37, 2*37 + 5
		pStride, pOff = 13, 13 + 4
	)
	plane := make([]byte, 12*stride)
	want := make([]byte, len(plane))
	pred := make([]byte, 10*pStride)
	for _, w := range []int{8, 4} {
		kernels := []kernel.Set{kernel.Scalar, kernel.SWAR}
		if w == 4 {
			kernels = kernels[:1] // Add4Clip takes no kernel set
		}
		blk := make([]int32, w*w)
		for start := 0; start < len(preds); start += w * w {
			for i := range blk {
				j := (start + i) % len(preds)
				pred[pOff+i/w*pStride+i%w] = preds[j]
				blk[i] = res[j]
			}
			for _, k := range kernels {
				for i := range plane {
					plane[i] = byte(i)
				}
				copy(want, plane)
				refAddClip(want, off, stride, pred, pOff, pStride, blk, w)
				if w == 8 {
					Add8Clip(plane, off, stride, pred, pOff, pStride, (*[64]int32)(blk), k)
				} else {
					Add4Clip(plane, off, stride, pred, pOff, pStride, (*[16]int32)(blk))
				}
				if !bytes.Equal(plane, want) {
					t.Fatalf("%d×%d %v block at pair %d diverges from the reference", w, w, k, start)
				}
			}
		}
	}
}

func TestSADBlockBytes(t *testing.T) {
	a := []byte{10, 20, 30, 40}
	b := []byte{12, 18, 33, 40}
	if got := SADBlockBytes(a, 0, 2, b, 0, 2, 2, 2); got != 2+2+3+0 {
		t.Fatalf("SAD = %d", got)
	}
}
