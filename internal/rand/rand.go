// Package rand is the repository's one seeded randomness source: a
// dependency-free xorshift64 generator plus the environment-seed
// convention shared by every chaos and scenario harness.
//
// Two callers grew their own copies before this package existed — the
// estimator benchmark's jitter source (the aru suite of cmd/pin) and
// internal/faultnet's delay jitter — and the scenario factory would
// have been a third. Centralizing matters beyond deduplication: pinned
// benchmark files (BENCH_aru.json, BENCH_scenarios.json) are
// regenerated from seeds, so the generator algorithm is part of the
// repository's persisted state. Rand reproduces the estimator
// benchmark's original xorshift64 stream bit for bit: New(s) followed by
// Uint64 calls yields exactly the sequence the pinned cells were
// measured under.
package rand

import (
	"os"
	"strconv"
	"time"
)

// zeroSeed replaces a zero seed: zero is the xorshift fixpoint (every
// draw would be zero forever). The constant is the splitmix64 golden
// gamma, an arbitrary full-entropy odd word.
const zeroSeed = 0x9E3779B97F4A7C15

// Rand is a seeded xorshift64 generator. It is deliberately minimal
// and deterministic across platforms; it is NOT safe for concurrent
// use — fork one per goroutine with Split streams instead of sharing.
type Rand struct {
	s uint64
}

// New returns a generator whose first Uint64 is exactly
// xorshift64(seed). A zero seed (the xorshift fixpoint) is replaced
// with a fixed full-entropy constant.
func New(seed uint64) *Rand {
	if seed == 0 {
		seed = zeroSeed
	}
	return &Rand{s: seed}
}

// Uint64 advances the generator: x ^= x<<13; x ^= x>>7; x ^= x<<17.
func (r *Rand) Uint64() uint64 {
	x := r.s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.s = x
	return x
}

// Int63n returns a uniform int64 in [0, n). n <= 0 returns 0 rather
// than panicking — fault scripts pass user-configured jitter spans and
// a zero span simply means "no jitter".
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(r.Uint64() % uint64(n))
}

// Intn returns a uniform int in [0, n); n <= 0 returns 0.
func (r *Rand) Intn(n int) int {
	return int(r.Int63n(int64(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of
// precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Duration returns a uniform duration in [min, max); max <= min
// returns min.
func (r *Rand) Duration(min, max time.Duration) time.Duration {
	if max <= min {
		return min
	}
	return min + time.Duration(r.Int63n(int64(max-min)))
}

// Fork derives an independent child generator from this one's stream,
// advancing the parent by one draw. The child is re-mixed through
// splitmix64 so parent and child sequences are uncorrelated (raw
// xorshift states one draw apart overlap heavily).
func (r *Rand) Fork() *Rand {
	return New(Split(r.Uint64(), 0))
}

// Split deterministically derives stream k's seed from a master seed
// using one round of splitmix64. Distinct (seed, k) pairs give
// uncorrelated xorshift streams; the scenario generator uses it to
// hand every stage its own stream so adding a stage never perturbs the
// draws of its siblings.
func Split(seed uint64, k uint64) uint64 {
	z := seed + (k+1)*zeroSeed
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = zeroSeed
	}
	return z
}

// EnvSeed returns the seed pinned in the named environment variable
// when it parses as an int64 (CI pins FAULTNET_SEED / SOAK_SEED
// for reproducible runs), def otherwise. Junk values fall back to def,
// matching the historical faultnet.Seed contract.
func EnvSeed(name string, def int64) int64 {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}
