package compute

import (
	"fmt"
	"math/rand"
	"testing"

	"gofusion/internal/arrow"
)

// randomScalar returns a random non-null value of type t.
func randomScalar(rng *rand.Rand, t *arrow.DataType) arrow.Scalar {
	switch t.ID {
	case arrow.BOOL:
		return arrow.NewScalar(t, rng.Intn(2) == 0)
	case arrow.INT8:
		return arrow.NewScalar(t, int8(rng.Intn(256)-128))
	case arrow.INT16:
		return arrow.NewScalar(t, int16(rng.Intn(1<<16)-1<<15))
	case arrow.INT32, arrow.DATE32:
		return arrow.NewScalar(t, rng.Int31()-1<<30)
	case arrow.INT64, arrow.TIMESTAMP:
		return arrow.NewScalar(t, rng.Int63()-1<<62)
	case arrow.UINT8:
		return arrow.NewScalar(t, uint8(rng.Intn(256)))
	case arrow.UINT16:
		return arrow.NewScalar(t, uint16(rng.Intn(1<<16)))
	case arrow.UINT32:
		return arrow.NewScalar(t, rng.Uint32())
	case arrow.UINT64:
		return arrow.NewScalar(t, rng.Uint64())
	case arrow.FLOAT32:
		return arrow.NewScalar(t, rng.Float32()*100-50)
	case arrow.FLOAT64:
		return arrow.NewScalar(t, rng.NormFloat64())
	case arrow.STRING:
		return arrow.NewScalar(t, fmt.Sprintf("s%0*d", rng.Intn(6), rng.Intn(1000)))
	case arrow.BINARY:
		b := make([]byte, rng.Intn(5))
		rng.Read(b)
		return arrow.NewScalar(t, b)
	case arrow.INTERVAL:
		return arrow.NewScalar(t, arrow.MonthDayMicro{Months: rng.Int31n(12), Days: rng.Int31n(30), Micros: rng.Int63n(1e9)})
	}
	panic("no random values for " + t.String())
}

// randomArray builds n slots of type t; nullFrac of them are null.
func randomArray(rng *rand.Rand, t *arrow.DataType, n int, nullFrac float64) arrow.Array {
	b := arrow.NewBuilder(t)
	for i := 0; i < n; i++ {
		if t.ID == arrow.NULL || rng.Float64() < nullFrac {
			b.AppendNull()
		} else {
			b.AppendScalar(randomScalar(rng, t))
		}
	}
	return b.Finish()
}

// randomWord returns one 64-row mask word: all set, all clear, sparse,
// dense or uniform.
func randomWord(rng *rand.Rand) uint64 {
	switch rng.Intn(5) {
	case 0:
		return ^uint64(0)
	case 1:
		return 0
	case 2:
		return rng.Uint64() & rng.Uint64() & rng.Uint64()
	case 3:
		return rng.Uint64() | rng.Uint64()
	}
	return rng.Uint64()
}

func wordBitmap(rng *rand.Rand, n int, word func(*rand.Rand) uint64) arrow.Bitmap {
	bm := arrow.NewBitmap(n)
	for w := 0; w*64 < n; w++ {
		x := word(rng)
		for i := 0; i < 64 && w*64+i < n; i++ {
			if x&(1<<uint(i)) != 0 {
				bm.Set(w*64 + i)
			}
		}
	}
	return bm
}

type maskCase struct {
	name string
	make func(rng *rand.Rand, n int) *arrow.BoolArray
}

var maskCases = []maskCase{
	{"all-set", func(_ *rand.Rand, n int) *arrow.BoolArray {
		return arrow.NewBool(arrow.NewBitmapSet(n), nil, n)
	}},
	{"all-clear", func(_ *rand.Rand, n int) *arrow.BoolArray {
		return arrow.NewBool(arrow.NewBitmap(n), nil, n)
	}},
	{"random-words", func(rng *rand.Rand, n int) *arrow.BoolArray {
		return arrow.NewBool(wordBitmap(rng, n, randomWord), nil, n)
	}},
	{"random-words-validity", func(rng *rand.Rand, n int) *arrow.BoolArray {
		return arrow.NewBool(wordBitmap(rng, n, randomWord), wordBitmap(rng, n, randomWord), n)
	}},
	{"all-set-values-validity", func(rng *rand.Rand, n int) *arrow.BoolArray {
		return arrow.NewBool(arrow.NewBitmapSet(n), wordBitmap(rng, n, randomWord), n)
	}},
	{"garbage-past-length", func(rng *rand.Rand, n int) *arrow.BoolArray {
		// Bits past n are set in both bitmaps; kernels must ignore them.
		pad := func(b arrow.Bitmap) arrow.Bitmap {
			b = append(b, 0xFF)
			if rem := n % 8; rem != 0 {
				b[n/8] |= 0xFF << uint(rem)
			}
			return b
		}
		return arrow.NewBool(pad(wordBitmap(rng, n, randomWord)), pad(wordBitmap(rng, n, randomWord)), n)
	}},
	{"sliced", func(rng *rand.Rand, n int) *arrow.BoolArray {
		off := rng.Intn(70)
		full := arrow.NewBool(wordBitmap(rng, n+off, randomWord), wordBitmap(rng, n+off, randomWord), n+off)
		return full.Slice(off, n).(*arrow.BoolArray)
	}},
}

var filterTypes = []*arrow.DataType{
	arrow.Boolean, arrow.Int8, arrow.Int16, arrow.Int32, arrow.Int64,
	arrow.Uint8, arrow.Uint16, arrow.Uint32, arrow.Uint64,
	arrow.Float32, arrow.Float64, arrow.Date32, arrow.String, arrow.Binary,
	arrow.Interval, arrow.Null,
}

// TestFilterMatchesRowReference checks every Filter kernel against a
// row-at-a-time reference over lengths 0-300, mask shapes with and without
// validity, and inputs with and without nulls, whole and sliced.
func TestFilterMatchesRowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, typ := range filterTypes {
		for n := 0; n <= 300; n++ {
			for _, mc := range maskCases {
				nullFrac := []float64{0, 0.3}[rng.Intn(2)]
				var a arrow.Array
				if off := rng.Intn(3) * rng.Intn(40); off > 0 {
					a = randomArray(rng, typ, n+off, nullFrac).Slice(off, n)
				} else {
					a = randomArray(rng, typ, n, nullFrac)
				}
				mask := mc.make(rng, n)
				got, err := Filter(a, mask)
				if err != nil {
					t.Fatal(err)
				}
				checkFiltered(t, fmt.Sprintf("%s n=%d mask=%s", typ, n, mc.name), a, mask, got)
			}
		}
	}
}

func checkFiltered(t *testing.T, name string, a arrow.Array, mask *arrow.BoolArray, got arrow.Array) {
	t.Helper()
	var want []arrow.Scalar
	nulls := 0
	for i := 0; i < a.Len(); i++ {
		if mask.IsValid(i) && mask.Value(i) {
			want = append(want, a.GetScalar(i))
			if a.IsNull(i) {
				nulls++
			}
		}
	}
	if got.DataType().ID != a.DataType().ID {
		t.Fatalf("%s: type %s, want %s", name, got.DataType(), a.DataType())
	}
	if got.Len() != len(want) || got.NullCount() != nulls {
		t.Fatalf("%s: len %d nulls %d, want len %d nulls %d", name, got.Len(), got.NullCount(), len(want), nulls)
	}
	for j, w := range want {
		if g := got.GetScalar(j); !g.Equal(w) {
			t.Fatalf("%s: row %d = %v, want %v", name, j, g, w)
		}
	}
	if mask.TrueCount() != len(want) {
		t.Fatalf("%s: TrueCount %d, want %d", name, mask.TrueCount(), len(want))
	}
}

func TestFilterBatchSharesMask(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		schema := arrow.NewSchema(
			arrow.NewField("i", arrow.Int64, true),
			arrow.NewField("s", arrow.String, true),
			arrow.NewField("b", arrow.Boolean, true),
		)
		cols := []arrow.Array{
			randomArray(rng, arrow.Int64, n, 0.2),
			randomArray(rng, arrow.String, n, 0.2),
			randomArray(rng, arrow.Boolean, n, 0.2),
		}
		batch := arrow.NewRecordBatch(schema, cols)
		mask := maskCases[3].make(rng, n)
		got, err := FilterBatch(batch, mask)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != mask.TrueCount() {
			t.Fatalf("n=%d: %d rows, want %d", n, got.NumRows(), mask.TrueCount())
		}
		for c := range cols {
			checkFiltered(t, fmt.Sprintf("n=%d col %d", n, c), cols[c], mask, got.Column(c))
		}
	}
	if _, err := Filter(arrow.NewInt64([]int64{1, 2}), arrow.NewBoolFromSlice([]bool{true})); err == nil {
		t.Fatal("length mismatch must fail")
	}
}
