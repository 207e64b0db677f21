// Package reuse holds the buffer helpers behind every machine
// component's in-place Reset. A component keeps its old buffers, zeroes
// its struct, rebuilds it, and reuses a buffer when its size fits, so a
// constructor is just that rebuild applied to a zero value (DESIGN.md
// §17). PointerFree checks that a type holds nothing the garbage
// collector scans, as the pipeline's and caches' hot state must not
// (§23).
package reuse

// Zeroed returns a zeroed slice of length n, reusing s's backing array
// when its capacity fits. Only a reused array is cleared: a new one
// comes zeroed from make.
func Zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Resized returns a slice of length n, reusing s's backing array when
// its capacity fits. Reused elements keep what they held: the caller
// either overwrites each element before reading it or has already
// cleared the ones it wrote.
func Resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Filled returns a slice of length n with every element v, reusing s's
// backing array when its capacity fits.
func Filled[T any](s []T, n int, v T) []T {
	s = Resized(s, n)
	if n > 0 {
		s[0] = v
		for i := 1; i < n; i *= 2 {
			copy(s[i:], s[:i])
		}
	}
	return s
}

// Empty returns an empty slice with capacity of at least n, reusing s's
// backing array when it fits. Elements past the length are left as they
// were: a caller that must not pin them clears them first.
func Empty[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// Ptr returns p, or a new zero T when p is nil: the object a Reset
// rebuilds in place.
func Ptr[T any](p *T) *T {
	if p == nil {
		return new(T)
	}
	return p
}
