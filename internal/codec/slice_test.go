package codec

import (
	"fmt"
	"testing"
)

func TestSliceRowsSplitsEvenly(t *testing.T) {
	cases := []struct {
		mbRows, n int
		wantRows  []int
	}{
		{36, 1, []int{36}},
		{36, 4, []int{9, 9, 9, 9}},
		{45, 4, []int{12, 11, 11, 11}},
		{5, 8, []int{1, 1, 1, 1, 1}}, // clamped to mbRows
		{36, 0, []int{36}},           // 0 means one slice
		{36, -3, []int{36}},
	}
	for _, tc := range cases {
		spans := SliceRows(tc.mbRows, tc.n)
		if len(spans) != len(tc.wantRows) {
			t.Fatalf("SliceRows(%d, %d): %d spans, want %d", tc.mbRows, tc.n, len(spans), len(tc.wantRows))
		}
		row := 0
		for i, s := range spans {
			if s.Row != row || s.Rows != tc.wantRows[i] {
				t.Fatalf("SliceRows(%d, %d)[%d] = {Row:%d Rows:%d}, want {Row:%d Rows:%d}",
					tc.mbRows, tc.n, i, s.Row, s.Rows, row, tc.wantRows[i])
			}
			row += s.Rows
		}
		if row != tc.mbRows {
			t.Fatalf("SliceRows(%d, %d) covers %d rows", tc.mbRows, tc.n, row)
		}
	}
}

func TestSliceTableRoundTrip(t *testing.T) {
	spans := SliceRows(45, 4)
	sizes := []int{100, 0, 7, 99999}
	body := 0
	for i := range spans {
		spans[i].Size = sizes[i]
		body += sizes[i]
	}
	buf := AppendSliceTable([]byte{0xAB}, spans) // prefix survives
	if buf[0] != 0xAB {
		t.Fatal("prefix clobbered")
	}
	buf = append(buf, make([]byte, body)...)

	got, off, err := ParseSliceTable(buf[1:], 45)
	if err != nil {
		t.Fatalf("ParseSliceTable: %v", err)
	}
	if off != SliceTableSize(4) {
		t.Fatalf("offset %d, want %d", off, SliceTableSize(4))
	}
	for i := range spans {
		if got[i] != spans[i] {
			t.Fatalf("span %d = %+v, want %+v", i, got[i], spans[i])
		}
	}
}

func TestParseSliceTableRejectsMalformed(t *testing.T) {
	valid := func() []byte {
		spans := SliceRows(8, 2)
		spans[0].Size, spans[1].Size = 3, 4
		buf := AppendSliceTable(nil, spans)
		return append(buf, make([]byte, 7)...)
	}

	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"zero slices", func(b []byte) []byte { b[0] = 0; return b }},
		{"too many slices", func(b []byte) []byte { b[0] = 200; return b }},
		{"truncated table", func(b []byte) []byte { return b[:5] }},
		{"gap in rows", func(b []byte) []byte { b[1+sliceRecSize] = 5; return b }},
		{"zero rows", func(b []byte) []byte { b[3] = 0; return b }},
		{"rows past frame", func(b []byte) []byte { b[3] = 20; return b }},
		{"size past payload", func(b []byte) []byte { b[5] = 0xFF; return b }},
		{"sizes under payload", func(b []byte) []byte { b[5] = 2; return b }},
		{"trailing garbage", func(b []byte) []byte { return append(b, 1, 2, 3) }},
	}
	for _, tc := range cases {
		buf := tc.mut(valid())
		if _, _, err := ParseSliceTable(buf, 8); err == nil {
			t.Errorf("%s: ParseSliceTable accepted malformed input", tc.name)
		}
	}
	// The unmutated table parses.
	if _, _, err := ParseSliceTable(valid(), 8); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
}

func TestEffectiveSlices(t *testing.T) {
	for _, tc := range []struct{ n, mbRows, want int }{
		{0, 36, 1}, {1, 36, 1}, {4, 36, 4}, {99, 36, 36}, {-1, 36, 1}, {1000, 5000, MaxSlices},
	} {
		if got := EffectiveSlices(tc.n, tc.mbRows); got != tc.want {
			t.Errorf("EffectiveSlices(%d, %d) = %d, want %d", tc.n, tc.mbRows, got, tc.want)
		}
	}
}

func TestSerialRunOrder(t *testing.T) {
	var order []int
	runSlices(nil, 4, func(i int) { order = append(order, i) })
	if fmt.Sprint(order) != "[0 1 2 3]" {
		t.Fatalf("serial order %v", order)
	}
}
