// Package diffview holds what `duotrace diff` and `duostat -diff` share:
// a fingerprint over a run's canonical bytes, and the changed-row table
// that compares two runs name by name and marks differing rows with *.
package diffview

import (
	"crypto/sha256"
	"fmt"
	"io"
	"sort"
)

// Fingerprint hashes canonical bytes to a short hex digest, so two runs
// whose canonical encodings are equal match however their files were
// formatted. It takes an encoder's (bytes, error) pair directly; a failed
// encoding is reported in place of a digest.
func Fingerprint(canonical []byte, err error) string {
	if err != nil {
		return "unhashable: " + err.Error()
	}
	sum := sha256.Sum256(canonical)
	return fmt.Sprintf("%x", sum[:12])
}

// Rows prints one row per name in a or b, in sorted order: a "*" marker
// when the name's two values differ (a missing name reads as the zero
// value), a blank otherwise, then the name padded to width and
// format(a[name], b[name]).
func Rows[V comparable](w io.Writer, width int, a, b map[string]V, format func(a, b V) string) {
	names := make([]string, 0, len(a)+len(b))
	for n := range a {
		names = append(names, n)
	}
	for n := range b {
		if _, ok := a[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		marker := " "
		if a[n] != b[n] {
			marker = "*"
		}
		fmt.Fprintf(w, "%s %-*s %s\n", marker, width, n, format(a[n], b[n]))
	}
}
