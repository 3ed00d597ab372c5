//go:build !(amd64 || arm64 || 386 || arm || riscv64 || loong64 || ppc64le || mipsle || mips64le || wasm)

package retrieval

// Portable fallback for big-endian (or otherwise unvetted) architectures:
// float sections of an index file are never aliased in place, so the
// decoder copies them through the explicit little-endian conversion. Same
// values, no unsafe.

// alignedFloats always declines; callers decode a copy instead.
func alignedFloats(sec []byte) ([]float64, bool) { return nil, false }
