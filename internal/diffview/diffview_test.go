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

func TestRowsMarksChangedAndOneSidedNames(t *testing.T) {
	var buf bytes.Buffer
	Rows(&buf, 4, map[string]int{"b": 1, "a": 2, "gone": 3}, map[string]int{"b": 1, "a": 5, "new": 4},
		func(a, b int) string { return fmt.Sprintf("%d→%d", a, b) })
	want := strings.Join([]string{
		"* a    2→5",
		"  b    1→1",
		"* gone 3→0",
		"* new  0→4",
	}, "\n") + "\n"
	if buf.String() != want {
		t.Errorf("rows:\n%s\nwant:\n%s", buf.String(), want)
	}
}
