package rand

import (
	"math"
	"testing"
	"time"
)

// legacyXorshift is the estimator benchmark's original implementation,
// kept here as the compatibility oracle: BENCH_aru.json was measured
// under this exact stream, so Rand must reproduce it bit for bit.
func legacyXorshift(s *uint64) uint64 {
	x := *s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = x
	return x
}

func TestUint64MatchesLegacyStream(t *testing.T) {
	for _, seed := range []uint64{1, 2, 1719, 0xDEADBEEF, math.MaxUint64} {
		r := New(seed)
		s := seed
		for i := 0; i < 1000; i++ {
			want := legacyXorshift(&s)
			if got := r.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: got %#x want %#x", seed, i, got, want)
			}
		}
	}
}

func TestZeroSeedIsNotAFixpoint(t *testing.T) {
	r := New(0)
	a, b := r.Uint64(), r.Uint64()
	if a == 0 || b == 0 || a == b {
		t.Fatalf("zero seed must be remapped to a live stream, got %#x, %#x", a, b)
	}
}

func TestInt63nBounds(t *testing.T) {
	r := New(42)
	for i := 0; i < 10000; i++ {
		if v := r.Int63n(7); v < 0 || v >= 7 {
			t.Fatalf("Int63n(7) = %d out of range", v)
		}
	}
	if v := r.Int63n(0); v != 0 {
		t.Fatalf("Int63n(0) = %d, want 0", v)
	}
	if v := r.Int63n(-5); v != 0 {
		t.Fatalf("Int63n(-5) = %d, want 0", v)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(99)
	for i := 0; i < 10000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", f)
		}
	}
}

func TestDuration(t *testing.T) {
	r := New(7)
	lo, hi := 5*time.Millisecond, 40*time.Millisecond
	for i := 0; i < 10000; i++ {
		if d := r.Duration(lo, hi); d < lo || d >= hi {
			t.Fatalf("Duration = %v out of [%v,%v)", d, lo, hi)
		}
	}
	if d := r.Duration(hi, lo); d != hi {
		t.Fatalf("inverted bounds must return min, got %v", d)
	}
}

func TestSplitStreamsDiffer(t *testing.T) {
	seen := map[uint64]uint64{}
	for k := uint64(0); k < 64; k++ {
		s := Split(1719, k)
		if s == 0 {
			t.Fatalf("Split produced zero seed for stream %d", k)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("streams %d and %d collided on seed %#x", prev, k, s)
		}
		seen[s] = k
	}
	// Same (seed, k) must be stable.
	if Split(1719, 3) != Split(1719, 3) {
		t.Fatal("Split is not deterministic")
	}
}

func TestForkDecorrelates(t *testing.T) {
	parent := New(1719)
	child := parent.Fork()
	// The child must not replay the parent's upcoming stream.
	same := 0
	for i := 0; i < 64; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("parent and forked child matched on %d/64 draws", same)
	}
}

func TestEnvSeed(t *testing.T) {
	const key = "RAND_TEST_SEED"
	if got := EnvSeed(key, 11); got != 11 {
		t.Fatalf("unset env: got %d want 11", got)
	}
	t.Setenv(key, "2026")
	if got := EnvSeed(key, 11); got != 2026 {
		t.Fatalf("set env: got %d want 2026", got)
	}
	t.Setenv(key, "junk")
	if got := EnvSeed(key, 11); got != 11 {
		t.Fatalf("junk env: got %d want 11 (fallback)", got)
	}
}
