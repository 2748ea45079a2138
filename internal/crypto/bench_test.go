package crypto

import (
	"fmt"
	"testing"

	"banyan/internal/types"
)

// The cached verification pipeline against the keyring: VerifyCert (one
// curve operation per signature per delivery) versus a Verifier (the same
// rule, each signature through the verified-signature cache). Two
// workloads per cluster size:
//
//   - gossip: a round's notarization certificate delivered 3 times — the
//     original broadcast, a header relay and the Advance all carry the same
//     quorum of signatures. This is what the engine's ingestion path
//     actually sees; the cache collapses deliveries 2 and 3.
//   - cold: every signature seen exactly once (worst case for the cache),
//     so this pair measures what the cache costs: computing, looking up and
//     storing one key per signature.
//
// The cached side builds a fresh Verifier every iteration, so cache state
// never carries across iterations: each measurement is one cold delivery
// plus two warm ones, exactly the per-round cost.

const gossipRedundancy = 3

var verifySizes = []int{16, 64, 128}

// verifyFixture is a keyring plus one quorum-sized notarization
// certificate, the unit of verification work per round.
type verifyFixture struct {
	keyring *Keyring
	cert    *types.Certificate
	quorum  int
}

func newVerifyFixture(b *testing.B, n int) *verifyFixture {
	b.Helper()
	params := types.Params{N: n, F: (n - 1) / 3, P: 1}
	quorum := params.NotarizationQuorum()
	keyring, signers := GenerateCluster(Ed25519(), n, 1)
	var block types.BlockID
	block[0] = 7
	votes := make([]types.Vote, quorum)
	for i := range votes {
		votes[i] = signers[i].SignVote(types.VoteNotarize, 1, block)
	}
	cert, err := types.NewCertificate(types.CertNotarization, 1, block, votes)
	if err != nil {
		b.Fatal(err)
	}
	return &verifyFixture{keyring: keyring, cert: cert, quorum: quorum}
}

// benchSizes runs fn once per cluster size, as sub-benchmarks n16, n64,
// n128, and reports the signatures one iteration checks.
func benchSizes(b *testing.B, sigsPerCert int, fn func(b *testing.B, fx *verifyFixture)) {
	for _, n := range verifySizes {
		b.Run(fmt.Sprint("n", n), func(b *testing.B) {
			fx := newVerifyFixture(b, n)
			b.ResetTimer()
			fn(b, fx)
			b.ReportMetric(float64(fx.quorum*sigsPerCert), "sigs/op")
		})
	}
}

// BenchmarkVerifyGossipKeyring is the baseline of the headline pair:
// every delivery of a round's certificate re-verifies every signature.
func BenchmarkVerifyGossipKeyring(b *testing.B) {
	benchSizes(b, gossipRedundancy, func(b *testing.B, fx *verifyFixture) {
		for i := 0; i < b.N; i++ {
			for d := 0; d < gossipRedundancy; d++ {
				if err := VerifyCert(fx.keyring, fx.cert, fx.quorum); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkVerifyGossipCached is the pipeline side of the headline pair:
// the cache absorbs the redundant deliveries.
func BenchmarkVerifyGossipCached(b *testing.B) {
	benchSizes(b, gossipRedundancy, func(b *testing.B, fx *verifyFixture) {
		for i := 0; i < b.N; i++ {
			v := NewVerifier(fx.keyring)
			for d := 0; d < gossipRedundancy; d++ {
				if err := v.VerifyCert(fx.cert, fx.quorum); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkVerifyColdKeyring verifies every signature exactly once,
// through the keyring.
func BenchmarkVerifyColdKeyring(b *testing.B) {
	benchSizes(b, 1, func(b *testing.B, fx *verifyFixture) {
		for i := 0; i < b.N; i++ {
			if err := VerifyCert(fx.keyring, fx.cert, fx.quorum); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVerifyColdCached verifies every signature exactly once through
// a Verifier: a fresh one per iteration never hits its cache, so this is
// the pipeline's cost on signatures it has not seen — ColdKeyring plus
// computing, looking up and storing a cache key per signature.
func BenchmarkVerifyColdCached(b *testing.B) {
	benchSizes(b, 1, func(b *testing.B, fx *verifyFixture) {
		for i := 0; i < b.N; i++ {
			v := NewVerifier(fx.keyring)
			if err := v.VerifyCert(fx.cert, fx.quorum); err != nil {
				b.Fatal(err)
			}
		}
	})
}
