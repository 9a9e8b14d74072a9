package sample

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/record"
)

func TestExactWhileSmall(t *testing.T) {
	s := NewOnline(100)
	for i := 0; i < 50; i++ {
		s.Add([]uint32{uint32(i)})
	}
	if s.Stride() != 1 || s.Size() != 50 || s.Len() != 50 {
		t.Fatalf("stride=%d size=%d len=%d", s.Stride(), s.Size(), s.Len())
	}
	for i := 0; i < 50; i++ {
		if got := s.EstimateRank([]uint32{uint32(i)}); got != i+1 {
			t.Fatalf("rank(%d) = %d, want %d", i, got, i+1)
		}
	}
	if got := s.EstimateRank([]uint32{999}); got != 50 {
		t.Fatalf("rank beyond end = %d", got)
	}
}

func TestCompactionKeepsSpacing(t *testing.T) {
	s := NewOnline(8)
	n := 1000
	for i := 0; i < n; i++ {
		s.Add([]uint32{uint32(i)})
	}
	if s.Len() != n {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Size() >= 8 || s.Size() < 4 {
		t.Fatalf("Size = %d, want in [4,8)", s.Size())
	}
	// Estimation error bounded by stride.
	for _, q := range []int{0, 100, 500, 999} {
		got := s.EstimateRank([]uint32{uint32(q)})
		if got < q+1-s.Stride() || got > q+1+s.Stride() {
			t.Fatalf("rank(%d) = %d (stride %d)", q, got, s.Stride())
		}
	}
}

func TestEstimateRankWithDuplicates(t *testing.T) {
	s := NewOnline(1000)
	for i := 0; i < 300; i++ {
		s.Add([]uint32{uint32(i / 100)}) // 100 copies each of 0,1,2
	}
	if got := s.EstimateRank([]uint32{0}); got != 100 {
		t.Fatalf("rank(0) = %d, want 100", got)
	}
	if got := s.EstimateRank([]uint32{1}); got != 200 {
		t.Fatalf("rank(1) = %d, want 200", got)
	}
}

func TestEstimateRange(t *testing.T) {
	s := NewOnline(1000)
	for i := 0; i < 100; i++ {
		s.Add([]uint32{uint32(i)})
	}
	if got := s.EstimateRange([]uint32{10}, []uint32{20}); got != 10 {
		t.Fatalf("range (10,20] = %d, want 10", got)
	}
	if got := s.EstimateRange(nil, []uint32{20}); got != 21 {
		t.Fatalf("range (-inf,20] = %d, want 21", got)
	}
	if got := s.EstimateRange([]uint32{89}, nil); got != 10 {
		t.Fatalf("range (89,+inf) = %d, want 10", got)
	}
	if got := s.EstimateRange([]uint32{50}, []uint32{40}); got != 0 {
		t.Fatalf("inverted range = %d, want 0", got)
	}
}

func TestAddTable(t *testing.T) {
	tb := record.FromRows(2, [][]uint32{{1, 1}, {2, 2}, {3, 3}}, nil)
	s := NewOnline(10)
	s.AddTable(tb)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.EstimateRank([]uint32{2, 2}); got != 2 {
		t.Fatalf("rank = %d", got)
	}
	// Prefix comparison: a 1-column key against 2-column samples.
	if got := s.EstimateRank([]uint32{2}); got != 2 {
		t.Fatalf("prefix rank = %d", got)
	}
}

func TestNewOnlineValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewOnline(1)
}

func TestQuickErrorWithinStride(t *testing.T) {
	f := func(seed int64, nRaw uint16, capRaw uint8) bool {
		n := int(nRaw%5000) + 1
		capacity := int(capRaw%200) + 2
		rng := rand.New(rand.NewSource(seed))
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = uint32(rng.Intn(100))
		}
		// Sort ascending (sample requires sorted stream).
		for i := 1; i < n; i++ {
			for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		s := NewOnline(capacity)
		for _, k := range keys {
			s.Add([]uint32{k})
		}
		// Check rank estimates for a few probes.
		for probe := uint32(0); probe < 100; probe += 17 {
			truth := 0
			for _, k := range keys {
				if k <= probe {
					truth++
				}
			}
			got := s.EstimateRank([]uint32{probe})
			if got < truth-s.Stride() || got > truth+s.Stride() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRetainedKeysAreExactStreamPositions checks the compaction moves
// the right keys: after any stream, retained key i is the key observed
// at position i*stride, and the array never outgrows a*d values. Keys
// are distinct per position so a misplaced copy cannot go unnoticed.
func TestRetainedKeysAreExactStreamPositions(t *testing.T) {
	for _, width := range []int{0, 1, 3} {
		for _, capacity := range []int{2, 3, 8, 9, 400} {
			for _, n := range []int{1, 2, 7, 8, 9, 100, 1601, 5000} {
				key := func(pos int) []uint32 {
					k := make([]uint32, width)
					for c := range k {
						k[c] = uint32(pos*width + c)
					}
					return k
				}
				viaAdd := NewOnline(capacity)
				tb := record.New(width, n)
				for pos := 0; pos < n; pos++ {
					viaAdd.Add(key(pos))
					tb.Append(key(pos), 1)
				}
				viaTable := NewOnline(capacity)
				viaTable.AddTable(tb)
				for _, s := range []*Online{viaAdd, viaTable} {
					if s.Len() != n || s.Size() < 1 || s.Size() >= capacity {
						t.Fatalf("w=%d a=%d n=%d: len %d size %d", width, capacity, n, s.Len(), s.Size())
					}
					if want := (n + s.Stride() - 1) / s.Stride(); s.Size() != want {
						t.Fatalf("w=%d a=%d n=%d: size %d, want %d at stride %d", width, capacity, n, s.Size(), want, s.Stride())
					}
					if cap(s.keys) > capacity*width {
						t.Fatalf("w=%d a=%d n=%d: key array capacity %d exceeds a*d = %d", width, capacity, n, cap(s.keys), capacity*width)
					}
					for i := 0; i < s.Size(); i++ {
						want := key(i * s.Stride())
						got := s.key(i)
						for c := range want {
							if got[c] != want[c] {
								t.Fatalf("w=%d a=%d n=%d: key %d = %v, want stream position %d = %v", width, capacity, n, i, got, i*s.Stride(), want)
							}
						}
					}
				}
				if viaAdd.Stride() != viaTable.Stride() {
					t.Fatalf("w=%d a=%d n=%d: Add and AddTable strides differ", width, capacity, n)
				}
			}
		}
	}
}
