package sketch

import (
	"math/rand"
	"testing"
)

// randBatches cuts a deterministic key stream into batches of varying size.
func randBatches(seed uint64, total int) [][]uint64 {
	rng := rand.New(NewSplitMix64(seed))
	keys := make([]uint64, total)
	for i := range keys {
		keys[i] = rng.Uint64() >> 14
	}
	var batches [][]uint64
	for len(keys) > 0 {
		sz := 1 + rng.Intn(97)
		if sz > len(keys) {
			sz = len(keys)
		}
		batches = append(batches, keys[:sz])
		keys = keys[sz:]
	}
	return batches
}

// TestBankMatchesReservoir drives a banked slot and a heap reservoir with
// the same seed through identical batch sequences and requires bit-equal
// state at every step — the bank's skip draw must replicate math/rand's
// Float64 over SplitMix64 exactly.
func TestBankMatchesReservoir(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef, 1 << 60} {
		var bank ReservoirBank
		bank.Reset(1)
		bank.Seed(0, seed)
		res := NewReservoirSeeded(seed)
		for bi, batch := range randBatches(seed^0x5ca1ab1e, 20000) {
			bank.OfferKeys(0, batch)
			res.OfferKeys(batch)
			bs, bok := bank.Sample(0)
			rs, rok := res.Sample()
			if bs != rs || bok != rok {
				t.Fatalf("seed %d batch %d: bank sample (%d,%v) != reservoir (%d,%v)", seed, bi, bs, bok, rs, rok)
			}
			if bank.count[0] != res.count || bank.next[0] != res.next || bank.state[0] != res.src.state {
				t.Fatalf("seed %d batch %d: bank state {count %d next %d rng %#x} != reservoir {count %d next %d rng %#x}",
					seed, bi, bank.count[0], bank.next[0], bank.state[0], res.count, res.next, res.src.state)
			}
		}
	}
}

// TestReservoirResetEqualsFresh proves the pool discipline's core claim for
// reservoirs: a recycled, Reset reservoir is bit-identical to a fresh
// NewReservoirSeeded, even after arbitrary prior use.
func TestReservoirResetEqualsFresh(t *testing.T) {
	used := NewReservoirSeeded(123)
	for _, b := range randBatches(3, 5000) {
		used.OfferKeys(b)
	}
	used.Reset(77)
	fresh := NewReservoirSeeded(77)
	for bi, b := range randBatches(4, 5000) {
		used.OfferKeys(b)
		fresh.OfferKeys(b)
		us, uok := used.Sample()
		fs, fok := fresh.Sample()
		if us != fs || uok != fok {
			t.Fatalf("batch %d: reset reservoir (%d,%v) != fresh (%d,%v)", bi, us, uok, fs, fok)
		}
	}
	if used.src.state != fresh.src.state || used.next != fresh.next || used.count != fresh.count {
		t.Fatal("reset reservoir final state differs from fresh")
	}

	// A NewReservoir over an external RNG switches to a private source on
	// Reset.
	ext := NewReservoir(rand.New(NewSplitMix64(1)))
	ext.Reset(77)
	for _, b := range randBatches(4, 5000) {
		ext.OfferKeys(b)
	}
	if es, _ := ext.Sample(); func() uint64 { s, _ := fresh.Sample(); return s }() != es {
		t.Fatal("reset external-RNG reservoir diverged from fresh seeded reservoir")
	}
}

// TestL0ReseedEqualsFresh proves the same claim for ℓ0-samplers: Reseed on
// a dirty sampler behaves exactly like a new construction.
func TestL0ReseedEqualsFresh(t *testing.T) {
	cfg := L0Config{Levels: 12, Buckets: 4, Reps: 2}
	rng := rand.New(NewSplitMix64(9))

	used := NewL0Sampler(31, cfg)
	for i := 0; i < 3000; i++ {
		used.Update(rng.Uint64()>>20, 1)
	}
	z := RandomFieldBase(207)
	used.Reseed(207, z)
	fresh := NewL0SamplerWithBase(207, z, cfg)
	for i := 0; i < 3000; i++ {
		k := rng.Uint64() >> 20
		d := int64(1)
		if i%3 == 0 {
			d = -1
		}
		used.Update(k, d)
		fresh.Update(k, d)
	}
	if *usedSample(used) != *usedSample(fresh) {
		t.Fatal("reseeded sampler diverged from fresh")
	}
	for i := range used.cells {
		if used.cells[i] != fresh.cells[i] {
			t.Fatalf("cell %d differs after reseed: %+v != %+v", i, used.cells[i], fresh.cells[i])
		}
	}
}

type sampleState struct {
	key uint64
	ok  bool
}

func usedSample(s *L0Sampler) *sampleState {
	k, ok := s.Sample()
	return &sampleState{key: k, ok: ok}
}
