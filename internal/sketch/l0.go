package sketch

import "math/bits"

// L0Sampler samples a (near-)uniform element from the support of a vector
// undergoing turnstile updates (insertions and deletions), per Lemma 7
// (Cormode–Firmani). It is the substrate that makes the paper's query
// emulation work in the turnstile model (Theorem 11): a uniform random edge
// is an ℓ0-sample of the adjacency matrix, and a uniform random neighbor of
// v is an ℓ0-sample of v's adjacency list.
//
// Construction: keys are subsampled into geometric levels by a hash
// function (level j contains the keys whose hash has at least j leading
// zero bits). Each level holds a small array of 1-sparse recovery cells
// (count, key-sum, and a polynomial fingerprint over GF(2^61-1) that detects
// collisions with high probability). A query walks levels from sparsest to
// densest, recovers the first non-empty level, and returns the recovered key
// with the minimum hash — the global minimum-hash key of the support, which
// is uniform. Independent repetitions drive the failure probability down.
//
// Key and count magnitudes are bounded: |key| < 2^50 and the absolute sum of
// counts per cell must stay below 2^12 scale such that |keySum| < 2^62.
// Graph streams satisfy this comfortably (keys are edge IDs < n^2 with
// n <= 2^25, net counts are 0 or 1).
type L0Sampler struct {
	seed       uint64
	z          uint64 // fingerprint evaluation point
	levels     int
	buckets    int // always a power of two
	bucketBits int
	bucketMask uint64
	reps       int
	cells      []l0cell // reps × levels × buckets
}

type l0cell struct {
	count  int64
	keySum int64
	fp     uint64 // Σ count_i · z^{key_i} mod 2^61-1
}

// L0Config configures an L0Sampler. The zero value selects the defaults.
type L0Config struct {
	// Levels is the number of geometric subsampling levels (default 44,
	// enough for supports up to ~2^44 keys).
	Levels int
	// Buckets is the number of 1-sparse recovery cells per level
	// (default 8).
	Buckets int
	// Reps is the number of independent repetitions (default 2).
	Reps int
}

func (c L0Config) withDefaults() L0Config {
	if c.Levels <= 0 {
		c.Levels = 44
	}
	if c.Buckets <= 0 {
		c.Buckets = 8
	}
	// Buckets are rounded up to a power of two so bucket selection can
	// consume hash bits directly.
	for c.Buckets&(c.Buckets-1) != 0 {
		c.Buckets++
	}
	if c.Reps <= 0 {
		c.Reps = 2
	}
	return c
}

// NewL0Sampler returns an empty sampler. Samplers with different seeds use
// independent hash functions.
func NewL0Sampler(seed uint64, cfg L0Config) *L0Sampler {
	return NewL0SamplerWithBase(seed, Hash64(seed, 0xf00dcafe)%(mersenne61-2)+2, cfg)
}

// NewL0SamplerWithBase is NewL0Sampler with an explicit fingerprint
// evaluation point z in [2, 2^61-1). Sharing z across many samplers lets a
// caller compute the per-update fingerprint term once (FingerprintTerm) and
// feed it to every sampler via UpdateTerm — the level hashes stay
// independent, only the collision-detection polynomial is shared.
func NewL0SamplerWithBase(seed, z uint64, cfg L0Config) *L0Sampler {
	cfg = cfg.withDefaults()
	bits := 0
	for 1<<uint(bits) < cfg.Buckets {
		bits++
	}
	s := &L0Sampler{
		seed:       seed,
		z:          z,
		levels:     cfg.Levels,
		buckets:    cfg.Buckets,
		bucketBits: bits,
		bucketMask: uint64(cfg.Buckets - 1),
		reps:       cfg.Reps,
	}
	s.cells = make([]l0cell, cfg.Reps*cfg.Levels*cfg.Buckets)
	return s
}

// Reseed re-arms the sampler in place under a new seed and fingerprint
// base, reusing its cell array: the result is bit-identical in every
// observable way to NewL0SamplerWithBase(seed, z, cfg) with the sampler's
// own configuration. It is the pool-reuse path of the pass engine
// (DESIGN.md §12): a round's samplers are recycled, not reallocated.
func (s *L0Sampler) Reseed(seed, z uint64) {
	s.seed = seed
	s.z = z
	clear(s.cells)
}

// Dirty smears the sampler's state with loud sentinels. It is a pool-debug
// hook (pool.DebugDirty) for sampler freelists: a reuse path that skipped
// Reseed then produces obviously corrupt samples instead of stale ones.
func (s *L0Sampler) Dirty() {
	s.seed = 0xdeaddeaddeaddead
	s.z = 0xdeaddeaddeaddead
	for i := range s.cells {
		s.cells[i] = l0cell{count: -0x5a5a5a, keySum: -0x5a5a5a, fp: 0xdeaddead}
	}
}

// RandomFieldBase draws a fingerprint evaluation point from the hash of the
// given seed, suitable for NewL0SamplerWithBase.
func RandomFieldBase(seed uint64) uint64 {
	return Hash64(seed, 0xf00dcafe)%(mersenne61-2) + 2
}

// FingerprintTerm computes the fingerprint contribution delta·z^key
// (mod 2^61-1) for use with UpdateTerm.
func FingerprintTerm(z, key uint64, delta int64) uint64 {
	return fingerprintTerm(z, key, delta)
}

// UpdateTerm is Update with the fingerprint term precomputed by the caller
// (term must equal FingerprintTerm(base, key, delta) for this sampler's
// base).
func (s *L0Sampler) UpdateTerm(key uint64, delta int64, term uint64) {
	if delta == 0 {
		return
	}
	keyDelta := delta * int64(key)
	for rep := 0; rep < s.reps; rep++ {
		deep := s.levelOf(rep, key)
		// One hash supplies the bucket choice of every level: levels peel
		// bucketBits bits each, rehashing when the 64 bits run out. (An
		// item occupies O(1) levels in expectation, so usually one hash.)
		bh := Hash64(s.seed^0xabcdef^uint64(rep), key)
		avail := 64
		for level := 0; level <= deep; level++ {
			if avail < s.bucketBits {
				bh = splitmix64(bh + 0x9e3779b97f4a7c15)
				avail = 64
			}
			b := int(bh & s.bucketMask)
			bh >>= uint(s.bucketBits)
			avail -= s.bucketBits
			c := s.cell(rep, level, b)
			c.count += delta
			c.keySum += keyDelta
			c.fp += term
			if c.fp >= mersenne61 {
				c.fp -= mersenne61
			}
		}
	}
}

func (s *L0Sampler) cell(rep, level, bucket int) *l0cell {
	return &s.cells[(rep*s.levels+level)*s.buckets+bucket]
}

// levelOf returns the deepest level key belongs to under repetition rep:
// the number of leading zero bits of its hash, capped at levels-1. A key in
// level j is also in all levels < j.
func (s *L0Sampler) levelOf(rep int, key uint64) int {
	h := Hash64(s.seed+uint64(rep)*0x9e3779b9, key)
	l := leadingZeros(h)
	if l >= s.levels {
		l = s.levels - 1
	}
	return l
}

func leadingZeros(x uint64) int { return bits.LeadingZeros64(x) }

// Update applies a turnstile update: the multiplicity of key changes by
// delta (typically ±1).
func (s *L0Sampler) Update(key uint64, delta int64) {
	s.UpdateTerm(key, delta, fingerprintTerm(s.z, key, delta))
}

// fingerprintTerm computes delta·z^key (mod 2^61-1), handling negative
// deltas via the field's additive inverse.
func fingerprintTerm(z, key uint64, delta int64) uint64 {
	term := powmod61(z, key)
	var d uint64
	if delta >= 0 {
		d = uint64(delta) % mersenne61
	} else {
		d = mersenne61 - uint64(-delta)%mersenne61
	}
	return mulmod61(term, d)
}

// oneSparse checks whether the cell holds exactly one key and returns it.
// It also reports emptiness. A cell that is neither empty nor verifiably
// 1-sparse indicates a collision.
func (s *L0Sampler) oneSparse(c *l0cell) (key uint64, empty, ok bool) {
	if c.count == 0 && c.keySum == 0 && c.fp == 0 {
		return 0, true, true
	}
	if c.count <= 0 {
		return 0, false, false
	}
	if c.keySum < 0 || c.keySum%c.count != 0 {
		return 0, false, false
	}
	k := uint64(c.keySum / c.count)
	want := mulmod61(uint64(c.count)%mersenne61, powmod61(s.z, k))
	if want != c.fp {
		return 0, false, false
	}
	return k, false, true
}

// Sample returns a near-uniform key from the current support. ok is false
// if the support is empty or recovery failed (probability shrinking
// geometrically in the configuration size).
func (s *L0Sampler) Sample() (key uint64, ok bool) {
	for rep := 0; rep < s.reps; rep++ {
		if k, got := s.sampleRep(rep); got {
			return k, true
		}
	}
	return 0, false
}

func (s *L0Sampler) sampleRep(rep int) (uint64, bool) {
	for level := s.levels - 1; level >= 0; level-- {
		var (
			found    bool
			best     uint64
			bestHash uint64
			valid    = true
		)
		empty := true
		for b := 0; b < s.buckets; b++ {
			c := s.cell(rep, level, b)
			k, isEmpty, isOK := s.oneSparse(c)
			if isEmpty {
				continue
			}
			empty = false
			if !isOK {
				valid = false
				break
			}
			h := Hash64(s.seed+uint64(rep)*0x9e3779b9, k)
			if !found || h < bestHash {
				found, best, bestHash = true, k, h
			}
		}
		if empty {
			continue
		}
		if !valid {
			return 0, false // collisions at the sparsest non-empty level
		}
		return best, found
	}
	return 0, false
}

// SpaceWords returns the approximate space usage in 64-bit words.
func (s *L0Sampler) SpaceWords() int64 {
	return int64(len(s.cells))*3 + 8
}
