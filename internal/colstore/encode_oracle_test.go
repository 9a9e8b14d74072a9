package colstore

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/record"
)

// oraclePack is the scratch-buffer packer Encode used to call: it
// bit-packs a materialized value slice LSB-first.
func oraclePack(vals []uint64, w uint8) []uint64 {
	nw := wordsFor(len(vals), w)
	if nw == 0 {
		return nil
	}
	words := make([]uint64, nw)
	for i, v := range vals {
		bit := i * int(w)
		word, off := bit>>6, uint(bit&63)
		words[word] |= v << off
		if off+uint(w) > 64 {
			words[word+1] |= v >> (64 - off)
		}
	}
	return words
}

// oracleEncode is the encoder as it was before it packed straight from
// the table: each column and the measure are first copied into an
// n-word scratch slice, then packed. Encode must agree with it field
// for field.
func oracleEncode(t *record.Table) *Slice {
	n := t.Len()
	s := &Slice{NumCols: t.D, NumRows: n, Cols: make([]Column, t.D)}
	vals := make([]uint64, n)
	for j := 0; j < t.D; j++ {
		var maxv uint64
		runs := 0
		for i := 0; i < n; i++ {
			v := uint64(t.Dim(i, j))
			vals[i] = v
			if v > maxv {
				maxv = v
			}
			if i == 0 || vals[i] != vals[i-1] {
				runs++
			}
		}
		w := bitsFor(maxv)
		col := Column{Width: w, N: n}
		if packedBytes(runs, w)+4*runs < packedBytes(n, w) {
			col.Kind = KindRLE
			rv := make([]uint64, 0, runs)
			ends := make([]uint32, 0, runs)
			for i := 0; i < n; i++ {
				if i == 0 || vals[i] != vals[i-1] {
					if i > 0 {
						ends = append(ends, uint32(i))
					}
					rv = append(rv, vals[i])
				}
			}
			if n > 0 {
				ends = append(ends, uint32(n))
			}
			col.Words = oraclePack(rv, w)
			col.Ends = ends
		} else {
			col.Kind = KindPacked
			col.Words = oraclePack(vals, w)
		}
		s.Cols[j] = col
	}
	if n > 0 {
		minv, maxv := t.Meas(0), t.Meas(0)
		for i := 1; i < n; i++ {
			m := t.Meas(i)
			if m < minv {
				minv = m
			}
			if m > maxv {
				maxv = m
			}
		}
		s.MeasMin = minv
		s.MeasWidth = bitsFor(uint64(maxv) - uint64(minv))
		mv := make([]uint64, n)
		for i := 0; i < n; i++ {
			mv[i] = uint64(t.Meas(i)) - uint64(minv)
		}
		s.MeasWords = oraclePack(mv, s.MeasWidth)
	}
	return s
}

// assertSameSlice fails unless got and want agree on every payload
// field (nil and empty slices are told apart) and on the checksum.
func assertSameSlice(t *testing.T, name string, got, want *Slice) {
	t.Helper()
	if got.NumCols != want.NumCols || got.NumRows != want.NumRows {
		t.Fatalf("%s: shape %dx%d, oracle %dx%d", name, got.NumRows, got.NumCols, want.NumRows, want.NumCols)
	}
	if !reflect.DeepEqual(got.Cols, want.Cols) {
		t.Fatalf("%s: columns differ from the oracle:\n got %+v\nwant %+v", name, got.Cols, want.Cols)
	}
	if got.MeasMin != want.MeasMin || got.MeasWidth != want.MeasWidth || !reflect.DeepEqual(got.MeasWords, want.MeasWords) {
		t.Fatalf("%s: measure min/width/words %d/%d/%v, oracle %d/%d/%v", name,
			got.MeasMin, got.MeasWidth, got.MeasWords, want.MeasMin, want.MeasWidth, want.MeasWords)
	}
	if got.Checksum() != want.Checksum() {
		t.Fatalf("%s: checksum %x, oracle %x", name, got.Checksum(), want.Checksum())
	}
}

// sketchHandle mirrors the sketch store's negative handle words.
func sketchHandle(shard uint32, idx int) int64 {
	return -(int64(shard)<<40 | int64(idx)) - 1
}

func TestEncodeMatchesScratchOracle(t *testing.T) {
	build := func(d, n int, dim func(i, j int) uint32, meas func(i int) int64) *record.Table {
		tb := record.New(d, n)
		row := make([]uint32, d)
		for i := 0; i < n; i++ {
			for j := range row {
				row[j] = dim(i, j)
			}
			tb.Append(row, meas(i))
		}
		return tb
	}
	one := func(int) int64 { return 1 }
	cases := map[string]*record.Table{
		"n=0":              build(3, 0, nil, nil),
		"n=0,d=0":          build(0, 0, nil, nil),
		"n=1":              build(3, 1, func(i, j int) uint32 { return uint32(7 + j) }, func(int) int64 { return 42 }),
		"d=0":              build(0, 5, nil, func(i int) int64 { return int64(i * 3) }),
		"all-equal column": build(2, 300, func(i, j int) uint32 { return uint32(9 * j * (i % 2)) }, one),
		"all-zero":         build(2, 200, func(i, j int) uint32 { return 0 }, func(int) int64 { return 0 }),
		"32-bit column": build(2, 257, func(i, j int) uint32 {
			if j == 1 {
				return math.MaxUint32 - uint32(i)
			}
			return uint32(i / 50)
		}, one),
		"negative measures": build(1, 130, func(i, j int) uint32 { return uint32(i) }, func(i int) int64 { return int64(i) - 1000 }),
		"sketch handles": build(2, 129, func(i, j int) uint32 { return uint32(i / (j + 3)) }, func(i int) int64 {
			if i%3 == 0 {
				return int64(i) // raw singleton
			}
			return sketchHandle(uint32(i%4), i)
		}),
		"full int64 span": build(1, 3, func(i, j int) uint32 { return uint32(i) }, func(i int) int64 {
			return []int64{math.MinInt64, 0, math.MaxInt64}[i]
		}),
	}
	for name, tb := range cases {
		assertSameSlice(t, name, Encode(tb), oracleEncode(tb))
	}

	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		d := rng.Intn(6)
		n := rng.Intn(600)
		cards := make([]uint32, d)
		for j := range cards {
			// From constant columns up to full 32-bit codes.
			cards[j] = []uint32{1, 2, 5, 300, 70000, math.MaxUint32}[rng.Intn(6)]
		}
		tb := build(d, n, func(i, j int) uint32 { return uint32(rng.Int63()) % cards[j] }, func(int) int64 {
			switch rng.Intn(3) {
			case 0:
				return rng.Int63n(5000) - 2500
			case 1:
				return sketchHandle(uint32(rng.Intn(4)), rng.Intn(1<<20))
			}
			return rng.Int63()
		})
		if rng.Intn(2) == 0 {
			tb.Sort() // view slices are sorted: long leading runs favour RLE
		}
		assertSameSlice(t, "random", Encode(tb), oracleEncode(tb))
	}
}
