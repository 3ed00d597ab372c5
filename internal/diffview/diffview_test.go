package diffview

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestFingerprint(t *testing.T) {
	a, b := Fingerprint([]byte("x"), nil), Fingerprint([]byte("x"), nil)
	if a != b || len(a) != 24 {
		t.Errorf("equal bytes: %q vs %q, want one 24-digit digest", a, b)
	}
	if c := Fingerprint([]byte("y"), nil); c == a {
		t.Errorf("different bytes share fingerprint %q", c)
	}
	if got := Fingerprint(nil, errors.New("boom")); got != "unhashable: boom" {
		t.Errorf("failed encoding: %q", got)
	}
}

// TestRowsMarksChangedAndOneSidedNames also pins the row order: both
// maps hold their names out of order, five of them only in a and five
// only in b, and the rows must come out sorted on every call.
func TestRowsMarksChangedAndOneSidedNames(t *testing.T) {
	a := map[string]int{"b": 1, "a": 2, "gone": 3, "x5": 5, "x1": 1, "x4": 4, "x2": 2, "x3": 3}
	b := map[string]int{"b": 1, "a": 5, "new": 4, "y5": 5, "y1": 1, "y4": 4, "y2": 2, "y3": 3}
	want := strings.Join([]string{
		"* a    2→5",
		"  b    1→1",
		"* gone 3→0",
		"* new  0→4",
		"* x1   1→0",
		"* x2   2→0",
		"* x3   3→0",
		"* x4   4→0",
		"* x5   5→0",
		"* y1   0→1",
		"* y2   0→2",
		"* y3   0→3",
		"* y4   0→4",
		"* y5   0→5",
	}, "\n") + "\n"
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		Rows(&buf, 4, a, b, func(a, b int) string { return fmt.Sprintf("%d→%d", a, b) })
		if buf.String() != want {
			t.Fatalf("call %d rows:\n%s\nwant:\n%s", i, buf.String(), want)
		}
	}
}
