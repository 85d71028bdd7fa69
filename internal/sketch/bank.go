package sketch

import "math"

// ReservoirBank holds the reservoirs of one query round as a contiguous
// struct-of-arrays: slot i's sample, stream position, next-accept index and
// RNG state live at index i of four flat slices instead of in a
// heap-allocated Reservoir. A round with thousands of RandomEdge queries
// (one reservoir per FGP trial edge) then costs zero allocations after the
// bank's slices have grown once, and a shard's OfferKeys sweep walks four
// cache-resident arrays instead of pointer-chasing three objects per
// reservoir.
//
// Each slot draws the bit-identical accept sequence of
// NewReservoirSeeded(seed): the skip draw replicates math/rand's
// (*Rand).Float64 over a SplitMix64 source exactly (including its f==1
// re-draw), so banked and heap reservoirs are interchangeable.
type ReservoirBank struct {
	state []uint64 // splitmix64 RNG state per slot
	item  []uint64 // current sample
	count []int64  // items offered
	next  []int64  // 1-based index of the next item to accept
}

// Reset re-arms the bank with n unseeded slots, reusing its backing arrays.
// Every slot must be seeded with Seed before use; Reset itself clears all
// slot state so a recycled bank cannot leak a previous round's samples.
func (b *ReservoirBank) Reset(n int) {
	if cap(b.state) < n {
		b.state = make([]uint64, n)
		b.item = make([]uint64, n)
		b.count = make([]int64, n)
		b.next = make([]int64, n)
	} else {
		b.state = b.state[:n]
		b.item = b.item[:n]
		b.count = b.count[:n]
		b.next = b.next[:n]
	}
	clear(b.state)
	clear(b.item)
	clear(b.count)
	for i := range b.next {
		b.next[i] = 1
	}
}

// Seed arms slot i exactly like NewReservoirSeeded(seed).
func (b *ReservoirBank) Seed(i int, seed uint64) {
	b.state[i] = seed
	b.item[i] = 0
	b.count[i] = 0
	b.next[i] = 1
}

// float64at replicates rand.New(NewSplitMix64(state)).Float64() bit for
// bit: one SplitMix64 step, the Int63 truncation, the /2^63 conversion and
// math/rand's re-draw when rounding hits 1.0.
func (b *ReservoirBank) float64at(i int) float64 {
	for {
		b.state[i] += 0x9e3779b97f4a7c15
		f := float64(int64(splitmix64(b.state[i])>>1)) / (1 << 63)
		if f != 1 {
			return f
		}
	}
}

// OfferKeys presents a batch of stream items to slot i, with the same
// skip-sampling contract as Reservoir.OfferKeys: bit-identical to offering
// every key in order, in O(accepts) amortized time.
func (b *ReservoirBank) OfferKeys(i int, keys []uint64) {
	base := b.count[i]
	end := base + int64(len(keys))
	next := b.next[i]
	for next <= end {
		b.item[i] = keys[next-base-1]
		cnt := next
		u := b.float64at(i)
		for u == 0 {
			u = b.float64at(i)
		}
		next = int64(math.Ceil(float64(cnt) / u))
		if next <= cnt {
			next = cnt + 1
		}
	}
	b.next[i] = next
	b.count[i] = end
}

// Sample returns slot i's sampled item and whether its stream was
// non-empty.
func (b *ReservoirBank) Sample(i int) (uint64, bool) {
	return b.item[i], b.count[i] > 0
}

// Dirty smears the bank's full backing capacity with loud sentinels. It is
// a pool-debug hook (pool.DebugDirty): a later Reset that failed to re-arm
// a slot then yields wildly wrong samples instead of coincidentally
// plausible stale ones.
func (b *ReservoirBank) Dirty() {
	for _, s := range [][]uint64{b.state[:cap(b.state)], b.item[:cap(b.item)]} {
		for i := range s {
			s[i] = 0xdeaddeaddeaddead
		}
	}
	for _, s := range [][]int64{b.count[:cap(b.count)], b.next[:cap(b.next)]} {
		for i := range s {
			s[i] = -0x5a5a5a5a5a5a5a5a
		}
	}
}
