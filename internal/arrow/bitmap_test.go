package arrow

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(20)
	for i := 0; i < 20; i++ {
		if b.Get(i) {
			t.Fatalf("bit %d should start clear", i)
		}
	}
	b.Set(3)
	b.Set(19)
	if !b.Get(3) || !b.Get(19) || b.Get(4) {
		t.Fatal("set/get mismatch")
	}
	if got := b.CountSet(20); got != 2 {
		t.Fatalf("CountSet = %d, want 2", got)
	}
	b.Clear(3)
	if b.Get(3) {
		t.Fatal("clear failed")
	}
	b.Put(5, true)
	b.Put(19, false)
	if !b.Get(5) || b.Get(19) {
		t.Fatal("put failed")
	}
}

func TestBitmapNilAllValid(t *testing.T) {
	var b Bitmap
	if !b.Get(0) || !b.Get(1000) {
		t.Fatal("nil bitmap must read as all-set")
	}
	if b.CountSet(37) != 37 {
		t.Fatal("nil bitmap CountSet must equal n")
	}
}

func TestNewBitmapSetTrailingBits(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65} {
		b := NewBitmapSet(n)
		if got := b.CountSet(n); got != n {
			t.Fatalf("NewBitmapSet(%d).CountSet = %d", n, got)
		}
	}
}

// Property: CountSet agrees with a reference bool-slice implementation for
// arbitrary set/clear sequences.
func TestBitmapCountSetProperty(t *testing.T) {
	f := func(seed int64, nSmall uint8) bool {
		n := int(nSmall)%200 + 1
		rng := rand.New(rand.NewSource(seed))
		b := NewBitmap(n)
		ref := make([]bool, n)
		for k := 0; k < 3*n; k++ {
			i := rng.Intn(n)
			v := rng.Intn(2) == 0
			b.Put(i, v)
			ref[i] = v
		}
		want := 0
		for i, v := range ref {
			if v != b.Get(i) {
				return false
			}
			if v {
				want++
			}
		}
		return b.CountSet(n) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: And matches element-wise reference, including nil operands.
func TestBitmapAndProperty(t *testing.T) {
	f := func(seed int64, nSmall uint8, xNil, yNil bool) bool {
		n := int(nSmall)%100 + 1
		rng := rand.New(rand.NewSource(seed))
		var x, y Bitmap
		if !xNil {
			x = NewBitmap(n)
			for i := 0; i < n; i++ {
				x.Put(i, rng.Intn(2) == 0)
			}
		}
		if !yNil {
			y = NewBitmap(n)
			for i := 0; i < n; i++ {
				y.Put(i, rng.Intn(2) == 0)
			}
		}
		out := NewBitmap(n)
		out.And(x, y, n)
		for i := 0; i < n; i++ {
			if out.Get(i) != (x.Get(i) && y.Get(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapClone(t *testing.T) {
	var nilB Bitmap
	if nilB.Clone() != nil {
		t.Fatal("nil clone must stay nil")
	}
	b := NewBitmap(16)
	b.Set(2)
	c := b.Clone()
	c.Set(3)
	if b.Get(3) {
		t.Fatal("clone must not alias")
	}
	if !c.Get(2) {
		t.Fatal("clone must copy bits")
	}
}

// TestBoolWordKernelsMatchBits checks Word, OrWord, TrueCount and Slice
// against bit-at-a-time references over lengths 0-200 and random offsets.
func TestBoolWordKernelsMatchBits(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for n := 0; n <= 200; n++ {
		vals, valid := NewBitmap(n), NewBitmap(n)
		for i := 0; i < n; i++ {
			vals.Put(i, rng.Intn(2) == 0)
			valid.Put(i, rng.Intn(4) != 0)
		}
		for w := 0; w*64 < n+64; w++ {
			var want uint64
			for i := 0; i < 64; i++ {
				if k := w*64 + i; k < len(vals)*8 && vals.Get(k) {
					want |= 1 << uint(i)
				}
			}
			if got := vals.Word(w); got != want {
				t.Fatalf("n=%d Word(%d) = %x, want %x", n, w, got, want)
			}
		}
		for _, v := range []Bitmap{nil, valid} {
			a := NewBool(vals, v, n)
			want := 0
			for i := 0; i < n; i++ {
				if a.IsValid(i) && a.Value(i) {
					want++
				}
			}
			if got := a.TrueCount(); got != want {
				t.Fatalf("n=%d TrueCount = %d, want %d", n, got, want)
			}
			off := rng.Intn(n + 1)
			m := rng.Intn(n - off + 1)
			s := a.Slice(off, m).(*BoolArray)
			for i := 0; i < m; i++ {
				if s.Value(i) != a.Value(off+i) || s.IsValid(i) != a.IsValid(off+i) {
					t.Fatalf("n=%d Slice(%d, %d) differs at %d", n, off, m, i)
				}
			}
			if rem := m % 8; rem != 0 && s.ValuesBitmap()[m/8]>>uint(rem) != 0 {
				t.Fatalf("n=%d Slice(%d, %d) leaves bits set past its length", n, off, m)
			}
		}
	}
	for off := 0; off < 80; off++ {
		x := rng.Uint64()
		b := NewBitmap(off + 64)
		b.OrWord(off, x)
		for i := 0; i < off+64; i++ {
			want := i >= off && x&(1<<uint(i-off)) != 0
			if b.Get(i) != want {
				t.Fatalf("OrWord(%d) bit %d = %v, want %v", off, i, b.Get(i), want)
			}
		}
	}
}
