package parquet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// rewriteFooter returns the bytes of the GPQ file at path with its footer
// replaced by edit's changes. Data pages keep their offsets.
func rewriteFooter(t *testing.T, path string, edit func(f *fileFooter)) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	footerLen := int(binary.LittleEndian.Uint32(data[len(data)-8:]))
	start := len(data) - 8 - footerLen
	var f fileFooter
	if err := json.Unmarshal(data[start:len(data)-8], &f); err != nil {
		t.Fatal(err)
	}
	edit(&f)
	footer, err := json.Marshal(&f)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), data[:start]...)
	out = append(out, footer...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(footer)))
	return append(out, Magic...)
}

// TestReadMetadataRejectsBadPageLayout hand-corrupts the footer of a file
// with 300-row groups paged at 100 rows, and checks that each layout the
// page-at-a-time scanner cannot index fails as a PageLayoutError instead
// of a panic.
func TestReadMetadataRejectsBadPageLayout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.gpq")
	writeTestFile(t, path, 600, WriterOptions{RowGroupRows: 300, PageRows: 100})
	cases := []struct {
		name   string
		edit   func(f *fileFooter)
		reason string
	}{
		{"unchanged", func(*fileFooter) {}, ""},
		{"columns disagree on page sizes", func(f *fileFooter) {
			p := f.RowGroups[1].Columns[2].Pages
			p[0].NumRows, p[1].FirstRow, p[1].NumRows = 150, 150, 50
		}, "column 0 has"},
		{"columns disagree on page count", func(f *fileFooter) {
			c := &f.RowGroups[0].Columns[1]
			c.Pages[0].NumRows = 200
			c.Pages = append(c.Pages[:1], c.Pages[2])
		}, "pages, column 0 has"},
		{"gap between pages", func(f *fileFooter) {
			f.RowGroups[0].Columns[0].Pages[1].FirstRow = 110
		}, "starts at row 110"},
		{"overlapping pages", func(f *fileFooter) {
			f.RowGroups[1].Columns[3].Pages[2].FirstRow = 150
		}, "starts at row 150"},
		{"pages fall short of the group", func(f *fileFooter) {
			f.RowGroups[0].Columns[4].Pages[2].NumRows = 50
		}, "cover 250 rows of 300"},
		{"pages run past the group", func(f *fileFooter) {
			f.RowGroups[1].NumRows = 250
		}, "cover 300 rows of 250"},
		{"empty page", func(f *fileFooter) {
			f.RowGroups[0].Columns[0].Pages[1].NumRows = 0
		}, "page has 0 rows"},
		{"negative page", func(f *fileFooter) {
			f.RowGroups[1].Columns[1].Pages[0].NumRows = -5
		}, "page has -5 rows"},
		{"missing column chunk", func(f *fileFooter) {
			f.RowGroups[1].Columns = f.RowGroups[1].Columns[:4]
		}, "4 column chunks for 5 schema fields"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := rewriteFooter(t, path, tc.edit)
			_, err := NewReader(bytes.NewReader(data), int64(len(data)))
			if tc.reason == "" {
				if err != nil {
					t.Fatalf("unchanged footer: %v", err)
				}
				return
			}
			var layout *PageLayoutError
			if !errors.As(err, &layout) {
				t.Fatalf("got %v, want a *PageLayoutError", err)
			}
			if !errors.Is(err, errFormat) || !strings.Contains(err.Error(), tc.reason) {
				t.Fatalf("got %q, want a format error mentioning %q", err, tc.reason)
			}
		})
	}
}
