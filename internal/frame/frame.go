// Package frame provides the planar YUV 4:2:0 picture type shared by every
// codec in HD-VideoBench, together with padding, copying and raw-file I/O.
//
// All codecs operate on 8-bit 4:2:0 content, the format of the paper's input
// sequences (Sony HDW-F900 captures, progressive, 4:2:0 chroma subsampling).
package frame

import (
	"fmt"
	"io"
)

// Frame is a planar YUV 4:2:0 picture. The luma plane is Width×Height and
// each chroma plane is (Width/2)×(Height/2).
//
// Planes are stored as full padded buffers: the visible pixel (row r, col c)
// of luma lives at Y[YOrigin + r*YStride + c], and the Pad-pixel border
// around the visible area is legal to read once ExtendBorders has run.
// Motion compensation relies on that border.
type Frame struct {
	Width, Height int

	// Y, Cb and Cr are the full padded planes.
	Y, Cb, Cr []byte

	YStride, CStride int

	// YOrigin and COrigin are the indices of the visible top-left pixel
	// within the luma and chroma planes respectively.
	YOrigin, COrigin int

	// Pad is the number of padding pixels around the luma plane (Pad/2
	// around chroma).
	Pad int

	// PTS is the display index of the frame within its sequence.
	PTS int

	// HpelBilin and Hpel6 cache the bilinear (MPEG-2-style) and 6-tap
	// (H.264/MPEG-4-style) half-sample luma planes of a reference frame.
	// Derived data, nil while not built from the current samples:
	// encoders fill them via interp.BuildHalfPelBilin /
	// interp.BuildHalfPel6 once a reconstruction becomes a reference, so
	// motion search scores sub-pel candidates straight from plane memory
	// instead of re-interpolating per candidate. Recycle sets them back
	// to nil. Clone and CopyFrom do not carry them (they are recomputed
	// where needed).
	HpelBilin, Hpel6 *HalfPlanes

	// Spare is half-pel plane memory Recycle set aside, its samples
	// stale: the next BuildHalfPel* on this frame fills it instead of
	// allocating. Nothing reads it as planes.
	Spare *HalfPlanes
}

// HalfPlanes holds half-sample interpolated copies of a padded luma plane,
// geometry-identical to it (same stride, origin and padding): H[p] is the
// half sample between p and p+1, V[p] between p and p+stride, and HV[p]
// the centre sample between all four. Only the region reachable by a
// clamped motion vector (everything but the outermost pad ring, see
// motion.Estimator.Window) is guaranteed to be filled.
type HalfPlanes struct {
	H, V, HV []byte

	// Rows is a builder's working memory (interp.BuildHalfPel6's ring of
	// horizontal intermediates), kept with the planes so a rebuild into
	// them allocates nothing. Not a plane.
	Rows []int32
}

// Recycle readies f to be drawn into again, keeping all its memory: the
// half-pel planes derived from its old samples stop being valid
// (HpelBilin and Hpel6 read nil) and one set of them moves to Spare.
func (f *Frame) Recycle() {
	switch {
	case f.Hpel6 != nil:
		f.Spare = f.Hpel6
	case f.HpelBilin != nil:
		f.Spare = f.HpelBilin
	}
	f.HpelBilin, f.Hpel6 = nil, nil
}

// ChromaWidth returns the width of the Cb/Cr planes.
func (f *Frame) ChromaWidth() int { return f.Width / 2 }

// ChromaHeight returns the height of the Cb/Cr planes.
func (f *Frame) ChromaHeight() int { return f.Height / 2 }

// LumaAt returns the luma sample at row r, column c of the visible area.
func (f *Frame) LumaAt(r, c int) byte { return f.Y[f.YOrigin+r*f.YStride+c] }

// SetLuma sets the luma sample at row r, column c of the visible area.
func (f *Frame) SetLuma(r, c int, v byte) { f.Y[f.YOrigin+r*f.YStride+c] = v }

// New allocates a frame with no padding. Width and Height must be positive
// and even (4:2:0 requires even dimensions).
func New(width, height int) *Frame {
	return NewPadded(width, height, 0)
}

// NewPadded allocates a frame with pad pixels of border around the luma
// plane and pad/2 around each chroma plane. pad must be even.
func NewPadded(width, height, pad int) *Frame {
	if width <= 0 || height <= 0 {
		panic(fmt.Sprintf("frame: invalid dimensions %dx%d", width, height))
	}
	if width%2 != 0 || height%2 != 0 {
		panic(fmt.Sprintf("frame: dimensions must be even, got %dx%d", width, height))
	}
	if pad%2 != 0 || pad < 0 {
		panic(fmt.Sprintf("frame: pad must be even and non-negative, got %d", pad))
	}
	yStride := width + 2*pad
	cPad := pad / 2
	cStride := width/2 + 2*cPad

	f := &Frame{
		Width:   width,
		Height:  height,
		YStride: yStride,
		CStride: cStride,
		YOrigin: pad*yStride + pad,
		COrigin: cPad*cStride + cPad,
		Pad:     pad,
		Y:       make([]byte, yStride*(height+2*pad)),
		Cb:      make([]byte, cStride*(height/2+2*cPad)),
		Cr:      make([]byte, cStride*(height/2+2*cPad)),
	}
	return f
}

// Clone returns a deep copy of f, including padding contents.
func (f *Frame) Clone() *Frame {
	g := NewPadded(f.Width, f.Height, f.Pad)
	copy(g.Y, f.Y)
	copy(g.Cb, f.Cb)
	copy(g.Cr, f.Cr)
	g.PTS = f.PTS
	return g
}

// CopyFrom copies the visible area of src into f. Dimensions must match;
// padding layouts may differ.
func (f *Frame) CopyFrom(src *Frame) {
	if f.Width != src.Width || f.Height != src.Height {
		panic(fmt.Sprintf("frame: copy size mismatch %dx%d vs %dx%d",
			f.Width, f.Height, src.Width, src.Height))
	}
	copyPlane(f.Y[f.YOrigin:], f.YStride, src.Y[src.YOrigin:], src.YStride, f.Width, f.Height)
	copyPlane(f.Cb[f.COrigin:], f.CStride, src.Cb[src.COrigin:], src.CStride, f.ChromaWidth(), f.ChromaHeight())
	copyPlane(f.Cr[f.COrigin:], f.CStride, src.Cr[src.COrigin:], src.CStride, f.ChromaWidth(), f.ChromaHeight())
	f.PTS = src.PTS
}

func copyPlane(dst []byte, dstStride int, src []byte, srcStride, w, h int) {
	for r := 0; r < h; r++ {
		copy(dst[r*dstStride:r*dstStride+w], src[r*srcStride:r*srcStride+w])
	}
}

// ExtendBorders replicates the edge pixels of the visible area into the
// padding region of every plane. Motion compensation reads up to Pad pixels
// outside the picture; reference frames must have extended borders.
func (f *Frame) ExtendBorders() {
	if f.Pad == 0 {
		return
	}
	extendPlane(f.Y, f.YStride, f.YOrigin, f.Width, f.Height, f.Pad)
	cPad := f.Pad / 2
	extendPlane(f.Cb, f.CStride, f.COrigin, f.ChromaWidth(), f.ChromaHeight(), cPad)
	extendPlane(f.Cr, f.CStride, f.COrigin, f.ChromaWidth(), f.ChromaHeight(), cPad)
}

func extendPlane(p []byte, stride, origin, w, h, pad int) {
	// Left and right borders of every visible row.
	for r := 0; r < h; r++ {
		row := origin + r*stride
		left := p[row]
		right := p[row+w-1]
		for c := 1; c <= pad; c++ {
			p[row-c] = left
			p[row+w-1+c] = right
		}
	}
	// Top and bottom borders, including corners, by replicating whole rows.
	top := origin - pad
	for r := 1; r <= pad; r++ {
		copy(p[top-r*stride:top-r*stride+w+2*pad], p[top:top+w+2*pad])
	}
	bot := origin + (h-1)*stride - pad
	for r := 1; r <= pad; r++ {
		copy(p[bot+r*stride:bot+r*stride+w+2*pad], p[bot:bot+w+2*pad])
	}
}

// Fill sets the visible area of all planes to the given constant values.
func (f *Frame) Fill(y, cb, cr byte) {
	fillPlane(f.Y[f.YOrigin:], f.YStride, f.Width, f.Height, y)
	fillPlane(f.Cb[f.COrigin:], f.CStride, f.ChromaWidth(), f.ChromaHeight(), cb)
	fillPlane(f.Cr[f.COrigin:], f.CStride, f.ChromaWidth(), f.ChromaHeight(), cr)
}

func fillPlane(p []byte, stride, w, h int, v byte) {
	for r := 0; r < h; r++ {
		row := p[r*stride : r*stride+w]
		for i := range row {
			row[i] = v
		}
	}
}

// WriteRaw writes the visible area as planar I420 (Y then Cb then Cr) to w.
// This is the raw-video format MEncoder's -demuxer rawvideo consumed in the
// paper's Table IV commands.
func (f *Frame) WriteRaw(w io.Writer) error {
	if err := writePlane(w, f.Y[f.YOrigin:], f.YStride, f.Width, f.Height); err != nil {
		return err
	}
	if err := writePlane(w, f.Cb[f.COrigin:], f.CStride, f.ChromaWidth(), f.ChromaHeight()); err != nil {
		return err
	}
	return writePlane(w, f.Cr[f.COrigin:], f.CStride, f.ChromaWidth(), f.ChromaHeight())
}

func writePlane(w io.Writer, p []byte, stride, width, height int) error {
	for r := 0; r < height; r++ {
		if _, err := w.Write(p[r*stride : r*stride+width]); err != nil {
			return err
		}
	}
	return nil
}

// ReadRaw fills the visible area from planar I420 data read from r.
func (f *Frame) ReadRaw(r io.Reader) error {
	if err := readPlane(r, f.Y[f.YOrigin:], f.YStride, f.Width, f.Height); err != nil {
		return err
	}
	if err := readPlane(r, f.Cb[f.COrigin:], f.CStride, f.ChromaWidth(), f.ChromaHeight()); err != nil {
		return err
	}
	return readPlane(r, f.Cr[f.COrigin:], f.CStride, f.ChromaWidth(), f.ChromaHeight())
}

func readPlane(r io.Reader, p []byte, stride, width, height int) error {
	for row := 0; row < height; row++ {
		if _, err := io.ReadFull(r, p[row*stride:row*stride+width]); err != nil {
			return err
		}
	}
	return nil
}

// RawSize returns the number of bytes of one I420 frame at the given size.
func RawSize(width, height int) int {
	return width*height + 2*(width/2)*(height/2)
}

// RawReader iterates the frames of a raw planar I420 stream one at a
// time, so arbitrarily long files flow through at single-frame memory —
// the input side of the streaming paths in cmd/vcodec and cmd/psnr.
type RawReader struct {
	r             io.Reader
	width, height int
	count         int
}

// NewRawReader returns a frame-by-frame reader over raw I420 data of the
// given dimensions.
func NewRawReader(r io.Reader, width, height int) *RawReader {
	return &RawReader{r: r, width: width, height: height}
}

// Next reads and returns the next frame, allocating it (use ReadInto to
// reuse a buffer when the caller does not keep frames). io.EOF signals a
// clean end on a frame boundary; a stream that ends mid-frame fails with
// io.ErrUnexpectedEOF.
func (rr *RawReader) Next() (*Frame, error) {
	f := New(rr.width, rr.height)
	if err := rr.ReadInto(f); err != nil {
		return nil, err
	}
	return f, nil
}

// ReadInto fills f (whose dimensions must match the reader's) from the
// stream, stamping its PTS with the frame's position.
func (rr *RawReader) ReadInto(f *Frame) error {
	if f.Width != rr.width || f.Height != rr.height {
		return fmt.Errorf("frame: reader is %dx%d, frame is %dx%d",
			rr.width, rr.height, f.Width, f.Height)
	}
	if err := f.ReadRaw(rr.r); err != nil {
		return err
	}
	f.PTS = rr.count
	rr.count++
	return nil
}

// Count returns the number of frames read so far.
func (rr *RawReader) Count() int { return rr.count }
