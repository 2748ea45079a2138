package crypto

import (
	"fmt"
	"testing"

	"banyan/internal/types"
)

// The cost of checking certificates against the keyring, one curve
// operation per signature per delivery. Two workloads per cluster size:
//
//   - gossip: a round's notarization certificate delivered 3 times — the
//     original broadcast, a header relay and the Advance all carry the same
//     quorum of signatures. This is what a replica would pay if it checked
//     every delivery; the engine drops the credentials it already holds
//     before verifying, so it pays the cold cost once.
//   - cold: every signature checked exactly once.

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

// BenchmarkVerifyGossipKeyring re-verifies every signature on every
// delivery of a round's certificate.
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
