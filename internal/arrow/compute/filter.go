// Package compute implements vectorized kernels over arrow Arrays:
// selection (filter, take), comparisons, boolean algebra, arithmetic,
// casting, hashing, concatenation, sorting and simple aggregation
// primitives. Kernels are the shared fast path for both the modular engine
// and the baseline comparator.
package compute

import (
	"fmt"
	"math/bits"

	"gofusion/internal/arrow"
)

// Filter returns the elements of a for which mask is valid and true.
// This implements SQL WHERE semantics: NULL mask slots are dropped.
func Filter(a arrow.Array, mask *arrow.BoolArray) (arrow.Array, error) {
	if a.Len() != mask.Len() {
		return nil, fmt.Errorf("compute: filter length mismatch %d vs %d", a.Len(), mask.Len())
	}
	return filterKeep(a, mask, mask.TrueCount()), nil
}

// filterKeep filters a by mask, whose TrueCount is keep. The kernels walk
// the mask 64 rows at a time (see BoolArray.TrueWord): an all-ones word
// copies 64 rows in bulk, an all-zero word is skipped, and any other word
// is walked one set bit at a time.
func filterKeep(a arrow.Array, mask *arrow.BoolArray, keep int) arrow.Array {
	if keep == a.Len() {
		return a
	}
	switch arr := a.(type) {
	case *arrow.Int8Array:
		return filterNumeric(arr, mask, keep)
	case *arrow.Int16Array:
		return filterNumeric(arr, mask, keep)
	case *arrow.Int32Array:
		return filterNumeric(arr, mask, keep)
	case *arrow.Int64Array:
		return filterNumeric(arr, mask, keep)
	case *arrow.Uint8Array:
		return filterNumeric(arr, mask, keep)
	case *arrow.Uint16Array:
		return filterNumeric(arr, mask, keep)
	case *arrow.Uint32Array:
		return filterNumeric(arr, mask, keep)
	case *arrow.Uint64Array:
		return filterNumeric(arr, mask, keep)
	case *arrow.Float32Array:
		return filterNumeric(arr, mask, keep)
	case *arrow.Float64Array:
		return filterNumeric(arr, mask, keep)
	case *arrow.StringArray:
		return filterString(arr, mask, keep)
	case *arrow.BoolArray:
		return arrow.NewBool(filterBits(arr.ValuesBitmap(), mask, keep), filterValidity(arr, mask, keep), keep)
	case *arrow.NullArray:
		return arrow.NewNull(keep)
	default:
		// Generic slow path for nested types.
		b := arrow.NewBuilder(a.DataType())
		for w := 0; w*64 < a.Len(); w++ {
			for word := mask.TrueWord(w); word != 0; word &= word - 1 {
				b.AppendFrom(a, w*64+bits.TrailingZeros64(word))
			}
		}
		return b.Finish()
	}
}

const allRows = ^uint64(0)

func filterNumeric[T arrow.Number](a *arrow.NumericArray[T], mask *arrow.BoolArray, keep int) arrow.Array {
	vals := a.Values()
	out := make([]T, keep)
	j := 0
	for w := 0; w*64 < len(vals); w++ {
		base := w * 64
		switch word := mask.TrueWord(w); word {
		case 0:
		case allRows:
			j += copy(out[j:], vals[base:base+64])
		default:
			for ; word != 0; word &= word - 1 {
				out[j] = vals[base+bits.TrailingZeros64(word)]
				j++
			}
		}
	}
	return arrow.NewNumeric(a.DataType(), out, filterValidity(a, mask, keep))
}

func filterString(a *arrow.StringArray, mask *arrow.BoolArray, keep int) arrow.Array {
	offs := a.Offsets()
	src := a.Data()
	n := a.Len()
	// Estimate output data size proportionally.
	est := 0
	if n > 0 {
		est = int(offs[n]-offs[0]) * keep / n
	}
	data := make([]byte, 0, est)
	out := make([]int32, keep+1)
	j := 1
	for w := 0; w*64 < n; w++ {
		base := w * 64
		switch word := mask.TrueWord(w); word {
		case 0:
		case allRows:
			delta := int32(len(data)) - offs[base]
			data = append(data, src[offs[base]:offs[base+64]]...)
			for _, o := range offs[base+1 : base+65] {
				out[j] = o + delta
				j++
			}
		default:
			for ; word != 0; word &= word - 1 {
				i := base + bits.TrailingZeros64(word)
				data = append(data, src[offs[i]:offs[i+1]]...)
				out[j] = int32(len(data))
				j++
			}
		}
	}
	return arrow.NewString(a.DataType(), out, data, filterValidity(a, mask, keep))
}

// filterValidity filters a's validity bitmap by mask, or returns nil when a
// has no nulls.
func filterValidity(a arrow.Array, mask *arrow.BoolArray, keep int) arrow.Bitmap {
	if a.NullCount() == 0 {
		return nil
	}
	return filterBits(a.Validity(), mask, keep)
}

// filterBits gathers the bits of src at the rows mask keeps into a fresh
// keep-bit bitmap.
func filterBits(src arrow.Bitmap, mask *arrow.BoolArray, keep int) arrow.Bitmap {
	out := arrow.NewBitmap(keep)
	j := 0
	for w := 0; w*64 < mask.Len(); w++ {
		switch word := mask.TrueWord(w); word {
		case 0:
		case allRows:
			out.OrWord(j, src.Word(w))
			j += 64
		default:
			s := src.Word(w)
			for ; word != 0; word &= word - 1 {
				if s&(1<<uint(bits.TrailingZeros64(word))) != 0 {
					out.Set(j)
				}
				j++
			}
		}
	}
	return out
}

// FilterBatch filters every column of a batch by the mask.
func FilterBatch(b *arrow.RecordBatch, mask *arrow.BoolArray) (*arrow.RecordBatch, error) {
	keep := mask.TrueCount()
	if keep == b.NumRows() {
		return b, nil
	}
	cols := make([]arrow.Array, b.NumCols())
	for i, c := range b.Columns() {
		if c.Len() != mask.Len() {
			return nil, fmt.Errorf("compute: filter length mismatch %d vs %d", c.Len(), mask.Len())
		}
		cols[i] = filterKeep(c, mask, keep)
	}
	return arrow.NewRecordBatchWithRows(b.Schema(), cols, keep), nil
}
