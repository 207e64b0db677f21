package reuse

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestZeroed covers both paths: a capacity that fits is reused and
// cleared up to the new length only; one that does not gets a new
// zeroed array and leaves the old one as it was.
func TestZeroed(t *testing.T) {
	s := []int{1, 2, 3, 4}
	z := Zeroed(s, 3)
	if len(z) != 3 || &z[0] != &s[0] {
		t.Fatalf("Zeroed(cap 4, 3) did not reuse the array: len=%d", len(z))
	}
	for i, v := range z {
		if v != 0 {
			t.Fatalf("z[%d]=%d, want 0", i, v)
		}
	}
	if s[3] != 4 {
		t.Fatalf("Zeroed cleared past the new length: s[3]=%d", s[3])
	}
	s = []int{1, 2, 3, 4}
	g := Zeroed(s, 9)
	if len(g) != 9 || &g[0] == &s[0] {
		t.Fatalf("Zeroed(cap 4, 9) must allocate: len=%d", len(g))
	}
	for i, v := range g {
		if v != 0 {
			t.Fatalf("fresh g[%d]=%d, want 0", i, v)
		}
	}
	if s[0] != 1 || s[3] != 4 {
		t.Fatalf("Zeroed(cap 4, 9) touched the array it could not reuse: %v", s)
	}
	if n := Zeroed[int](nil, 0); len(n) != 0 {
		t.Fatal("Zeroed(nil, 0) must be empty")
	}
	if n := Zeroed[int](nil, 5); len(n) != 5 || n[4] != 0 {
		t.Fatalf("Zeroed(nil, 5) = %v", n)
	}
}

func TestResizedKeepsContents(t *testing.T) {
	s := []int{1, 2, 3, 4}
	r := Resized(s[:1], 3)
	if len(r) != 3 || &r[0] != &s[0] || r[2] != 3 {
		t.Fatalf("Resized(cap 4, 3) = %v, want the reused [1 2 3]", r)
	}
	if g := Resized(s, 5); len(g) != 5 || g[0] != 0 {
		t.Fatalf("Resized(cap 4, 5) must allocate a zeroed slice: %v", g)
	}
}

func TestFilled(t *testing.T) {
	s := make([]int8, 3, 16)
	for _, n := range []int{0, 1, 2, 7, 16} {
		f := Filled(s, n, -1)
		if len(f) != n || (n > 0 && &f[0] != &s[:1][0]) {
			t.Fatalf("Filled(cap 16, %d): len %d, reused %v", n, len(f), n > 0 && &f[0] == &s[:1][0])
		}
		for i, v := range f {
			if v != -1 {
				t.Fatalf("Filled(%d)[%d] = %d, want -1", n, i, v)
			}
		}
	}
	if g := Filled(s, 17, 5); len(g) != 17 || g[16] != 5 {
		t.Fatalf("Filled(cap 16, 17) = %v", g)
	}
}

func TestEmptyReusesWhenItFits(t *testing.T) {
	s := make([]int, 2, 8)
	e := Empty(s, 8)
	if len(e) != 0 || cap(e) != 8 || &e[:1][0] != &s[0] {
		t.Fatalf("Empty(cap 8, 8) did not reuse: len=%d cap=%d", len(e), cap(e))
	}
	g := Empty(s, 9)
	if len(g) != 0 || cap(g) < 9 {
		t.Fatalf("Empty(cap 8, 9): len=%d cap=%d", len(g), cap(g))
	}
}

func TestPtr(t *testing.T) {
	x := new(int)
	if Ptr(x) != x {
		t.Fatal("Ptr(non-nil) must return its argument")
	}
	if p := Ptr[int](nil); p == nil || *p != 0 {
		t.Fatal("Ptr(nil) must return a new zero value")
	}
}

func TestPointerFree(t *testing.T) {
	type flat struct {
		a uint32
		b [3]struct {
			c bool
			d float64
		}
	}
	if err := PointerFree(reflect.TypeOf(flat{})); err != nil {
		t.Errorf("flat struct: %v", err)
	}
	for _, v := range []any{
		new(int), []int(nil), map[int]int(nil), "", [1]any{}, func() {}, make(chan int),
		unsafe.Pointer(nil), struct{ x [2]struct{ p *flat } }{},
	} {
		if PointerFree(reflect.TypeOf(v)) == nil {
			t.Errorf("%T passed as pointer-free", v)
		}
	}
	err := PointerFree(reflect.TypeOf(struct{ x [2]struct{ p *flat } }{}))
	if want := "struct { x [2]struct { p *reuse.flat } }.x[].p is a ptr"; err == nil || err.Error() != want {
		t.Errorf("error %v, want %q", err, want)
	}
}
