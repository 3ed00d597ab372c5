//go:build amd64 || arm64 || 386 || arm || riscv64 || loong64 || ppc64le || mipsle || mips64le || wasm

package retrieval

import "unsafe"

// This file is the little-endian half of the float-section aliasing pair
// (see alias_be.go for the portable fallback). On these architectures
// the on-disk little-endian float64 bit patterns are already in native
// byte order, so a mapped index file can be reinterpreted in place —
// loading costs no per-value decode and no copy of the feature matrix.

// alignedFloats reinterprets sec as a []float64 without copying when the
// section is 8-byte aligned (always true for sections of a page-aligned
// mapping, since the layout aligns every section to 8 bytes). A misaligned
// base — possible for heap-backed buffers handed to the decoder — reports
// false and the caller decodes by copy instead.
func alignedFloats(sec []byte) ([]float64, bool) {
	if len(sec) == 0 {
		return nil, true
	}
	if uintptr(unsafe.Pointer(&sec[0]))%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&sec[0])), len(sec)/8), true
}
