// Package crypto provides the signature layer of the consensus stack: a
// pluggable signing scheme, a keyring standing in for the paper's PKI, and
// verification helpers for blocks, votes, certificates and unlock proofs.
//
// The Banyan paper aggregates votes with BLS multi-signatures. BLS needs
// pairing-friendly curves that are not in the Go standard library, so this
// implementation substitutes per-replica signatures combined into a
// signer-list certificate (see types.Certificate and ARCHITECTURE.md,
// "Deviations from the paper"). The substitution preserves everything the
// protocol relies on: unforgeability of votes, transferability of quorum
// certificates, and certificate sizes that grow with the quorum.
package crypto

import (
	"bytes"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"

	"banyan/internal/types"
)

// Scheme is a deterministic digital-signature scheme over 32-byte digests.
type Scheme interface {
	// Name identifies the scheme ("ed25519", "hmac").
	Name() string
	// SignatureSize is the fixed signature length in bytes.
	SignatureSize() int
	// KeyGen derives a key pair deterministically from a 32-byte seed.
	KeyGen(seed [32]byte) (priv, pub []byte)
	// Sign signs a digest.
	Sign(priv []byte, digest [32]byte) []byte
	// Verify checks a signature.
	Verify(pub []byte, digest [32]byte, sig []byte) bool
}

// Ed25519 returns the production scheme: real Ed25519 signatures.
func Ed25519() Scheme { return ed25519Scheme{} }

type ed25519Scheme struct{}

func (ed25519Scheme) Name() string       { return "ed25519" }
func (ed25519Scheme) SignatureSize() int { return ed25519.SignatureSize }

func (ed25519Scheme) KeyGen(seed [32]byte) ([]byte, []byte) {
	priv := ed25519.NewKeyFromSeed(seed[:])
	pub := priv.Public().(ed25519.PublicKey)
	return priv, pub
}

func (ed25519Scheme) Sign(priv []byte, digest [32]byte) []byte {
	return ed25519.Sign(ed25519.PrivateKey(priv), digest[:])
}

func (ed25519Scheme) Verify(pub []byte, digest [32]byte, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize {
		return false
	}
	return ed25519.Verify(ed25519.PublicKey(pub), digest[:], sig)
}

// HMAC returns a symmetric MAC-based scheme for large simulations: tags are
// HMAC-SHA256 over the digest. It is roughly two orders of magnitude faster
// than Ed25519 and keeps message sizes realistic (32-byte tags), but the
// "public key" equals the secret, so it authenticates only in simulations
// where all replicas are honest process-local code. Byzantine tests that
// need unforgeability use Ed25519.
func HMAC() Scheme { return hmacScheme{} }

type hmacScheme struct{}

func (hmacScheme) Name() string       { return "hmac" }
func (hmacScheme) SignatureSize() int { return sha256.Size }

func (hmacScheme) KeyGen(seed [32]byte) ([]byte, []byte) {
	h := sha256.Sum256(append([]byte("banyan/hmac-key/"), seed[:]...))
	k := h[:]
	return k, k
}

func (hmacScheme) Sign(priv []byte, digest [32]byte) []byte {
	m := hmac.New(sha256.New, priv)
	m.Write(digest[:])
	return m.Sum(nil)
}

func (hmacScheme) Verify(pub []byte, digest [32]byte, sig []byte) bool {
	m := hmac.New(sha256.New, pub)
	m.Write(digest[:])
	return hmac.Equal(m.Sum(nil), sig)
}

// SchemeByName resolves a scheme from its configuration name.
func SchemeByName(name string) (Scheme, error) {
	switch name {
	case "", "ed25519":
		return Ed25519(), nil
	case "hmac":
		return HMAC(), nil
	default:
		return nil, fmt.Errorf("crypto: unknown scheme %q", name)
	}
}

// Keyring is the global key registry standing in for the PKI: every
// replica identity that has ever existed in the deployment, under one
// scheme. Since PR 9 it is growable — validators added by on-chain
// reconfiguration register their keys at apply time — and decoupled from
// *membership*: holding a key in the registry means "this identity can be
// authenticated", while the epoch's validator set (internal/membership)
// decides who may vote. Removed validators keep their registry entry so
// certificates from earlier epochs keep verifying.
//
// Reads are lock-free (copy-on-write behind an atomic pointer), so the
// hot verification path pays nothing for growability; SetKey serializes
// writers.
type Keyring struct {
	scheme Scheme
	mu     sync.Mutex // serializes SetKey
	pubs   atomic.Pointer[[][]byte]
}

// NewKeyring builds a keyring over the given public keys.
func NewKeyring(scheme Scheme, pubs [][]byte) *Keyring {
	cp := make([][]byte, len(pubs))
	copy(cp, pubs)
	k := &Keyring{scheme: scheme}
	k.pubs.Store(&cp)
	return k
}

// SetKey registers (or re-asserts) replica id's public key, growing the
// registry as needed. Registering the key an identity already holds is an
// idempotent no-op; registering a *different* key for a known identity is
// rejected — identities are never re-keyed, which is what lets old
// certificates verify forever.
func (k *Keyring) SetKey(id types.ReplicaID, pub []byte) error {
	if len(pub) == 0 {
		return fmt.Errorf("crypto: empty public key for replica %d", id)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	cur := *k.pubs.Load()
	if int(id) < len(cur) && cur[id] != nil {
		if bytes.Equal(cur[id], pub) {
			return nil
		}
		return fmt.Errorf("crypto: replica %d already registered under a different key", id)
	}
	size := len(cur)
	if int(id) >= size {
		size = int(id) + 1
	}
	next := make([][]byte, size)
	copy(next, cur)
	next[id] = append([]byte(nil), pub...)
	k.pubs.Store(&next)
	return nil
}

// GenerateCluster deterministically creates n key pairs from a cluster
// seed, returning the shared keyring and one signer per replica. All
// replicas of a deployment derive identical keyrings from the same seed,
// which is how the examples and the simulator bootstrap their PKI.
func GenerateCluster(scheme Scheme, n int, seed uint64) (*Keyring, []*Signer) {
	pubs := make([][]byte, n)
	signers := make([]*Signer, n)
	for i := 0; i < n; i++ {
		var s [32]byte
		h := sha256.New()
		fmt.Fprintf(h, "banyan/keyseed/%d/%d", seed, i)
		h.Sum(s[:0])
		priv, pub := scheme.KeyGen(s)
		pubs[i] = pub
		signers[i] = &Signer{id: types.ReplicaID(i), scheme: scheme, priv: priv}
	}
	return NewKeyring(scheme, pubs), signers
}

// N returns the number of replica identities the registry spans.
func (k *Keyring) N() int { return len(*k.pubs.Load()) }

// Scheme returns the signature scheme of the keyring.
func (k *Keyring) Scheme() Scheme { return k.scheme }

// PublicKey returns replica id's public key, or nil if unregistered.
func (k *Keyring) PublicKey(id types.ReplicaID) []byte {
	pubs := *k.pubs.Load()
	if int(id) >= len(pubs) {
		return nil
	}
	return pubs[id]
}

// Verify checks a signature by replica id over a digest.
func (k *Keyring) Verify(id types.ReplicaID, digest [32]byte, sig []byte) bool {
	pub := k.PublicKey(id)
	if pub == nil {
		return false
	}
	return k.scheme.Verify(pub, digest, sig)
}

// Signer holds one replica's private key.
type Signer struct {
	id     types.ReplicaID
	scheme Scheme
	priv   []byte
}

// ID returns the replica the signer signs for.
func (s *Signer) ID() types.ReplicaID { return s.id }

// Sign signs a raw digest.
func (s *Signer) Sign(digest [32]byte) []byte { return s.scheme.Sign(s.priv, digest) }

// SignVote creates a signed vote of the given kind.
func (s *Signer) SignVote(kind types.VoteKind, round types.Round, block types.BlockID) types.Vote {
	v := types.Vote{Kind: kind, Round: round, Block: block, Voter: s.id}
	v.Signature = s.Sign(v.Digest())
	return v
}

// SignBlock attaches the proposer signature to a block. The block's
// Proposer must equal the signer's replica ID.
func (s *Signer) SignBlock(b *types.Block) error {
	if b.Proposer != s.id {
		return fmt.Errorf("crypto: signer %d cannot sign block proposed by %d", s.id, b.Proposer)
	}
	id := b.ID()
	b.Signature = s.Sign(blockDigest(id))
	return nil
}

func blockDigest(id types.BlockID) [32]byte {
	h := sha256.New()
	h.Write([]byte("banyan/blocksig/v1"))
	h.Write(id[:])
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// check is the one signature check every verification rule below runs
// over: each signature goes to the keyring once, and a Verifier's check
// also counts it.
type check struct {
	kr       *Keyring
	verified *atomic.Int64 // nil: count nothing
}

// sig checks replica id's signature over digest.
func (ck check) sig(id types.ReplicaID, digest [32]byte, sig []byte) bool {
	if ck.verified != nil {
		ck.verified.Add(1)
	}
	return ck.kr.Verify(id, digest, sig)
}

// block checks the proposer signature on a block.
func (ck check) block(b *types.Block) error {
	if b.IsGenesis() {
		return nil
	}
	if !ck.sig(b.Proposer, blockDigest(b.ID()), b.Signature) {
		return fmt.Errorf("crypto: bad proposer signature on %v", b)
	}
	return nil
}

// header checks the proposer signature on a signed header: the same
// signature block checks on the block it belongs to, without hashing the
// payload to get there.
func (ck check) header(h *types.SignedHeader) error {
	if !ck.sig(h.Proposer, blockDigest(h.ID()), h.Signature) {
		return fmt.Errorf("crypto: bad proposer signature on header r=%d id=%s", h.Round, h.ID())
	}
	return nil
}

// vote checks a single vote's signature.
func (ck check) vote(v types.Vote) error {
	if !v.Kind.Valid() {
		return fmt.Errorf("crypto: invalid vote kind in %v", v)
	}
	if !ck.sig(v.Voter, v.Digest(), v.Signature) {
		return fmt.Errorf("crypto: bad signature on %v", v)
	}
	return nil
}

// cert checks a certificate. Everything that needs no signature comes
// first: the shape (distinct signers meeting the quorum) and, when
// set is not nil, every signer's membership in it. Then each signature,
// in signer order, against the digest its signer is marked as having
// signed (types.Certificate.Fast), stopping at the first failure.
func (ck check) cert(c *types.Certificate, quorum int, set MemberSet) error {
	if c == nil {
		return fmt.Errorf("crypto: nil certificate")
	}
	if err := c.CheckShape(ck.kr.N(), quorum); err != nil {
		return err
	}
	if set != nil {
		for _, signer := range c.Signers {
			if !set.Contains(signer) {
				return fmt.Errorf("crypto: signer %d not a member of the certificate's epoch in %v", signer, c)
			}
		}
	}
	digests := c.SignerDigests()
	for i, signer := range c.Signers {
		if !ck.sig(signer, digests[c.FastBit(i)], c.Sigs[i]) {
			return fmt.Errorf("crypto: bad signature by %d in %v", signer, c)
		}
	}
	return nil
}

// unlockProof checks an unlock proof. Everything that needs no signature
// comes first: voters and signatures in step, every voter's membership in
// set when it is not nil, and that the proof establishes its claim under
// Definition 7.6 with the given threshold (f+p). Then each fast vote, in
// entry and voter order, stopping at the first failure; its digest is
// recomputed against the entry's header ID, so rank claims are bound by
// the hash.
func (ck check) unlockProof(u *types.UnlockProof, threshold int, set MemberSet) error {
	if u == nil {
		return fmt.Errorf("crypto: nil unlock proof")
	}
	for _, e := range u.Entries {
		if len(e.Voters) != len(e.Sigs) {
			return fmt.Errorf("crypto: unlock entry voters/sigs mismatch in %v", u)
		}
		if set == nil {
			continue
		}
		for _, voter := range e.Voters {
			if !set.Contains(voter) {
				return fmt.Errorf("crypto: fast voter %d not a member of the proof's epoch in %v", voter, u)
			}
		}
	}
	if !u.Evaluate(threshold) {
		return fmt.Errorf("crypto: unlock proof does not establish its claim: %v", u)
	}
	for _, e := range u.Entries {
		id := e.Header.ID()
		digest := types.VoteDigest(types.VoteFast, u.Round, id)
		for i, voter := range e.Voters {
			if !ck.sig(voter, digest, e.Sigs[i]) {
				return fmt.Errorf("crypto: bad fast vote by %d for %s in %v", voter, id, u)
			}
		}
	}
	return nil
}

// MemberSet is the membership predicate epoch-pinned verification checks
// signers against; membership.ValidatorSet satisfies it. Keeping the
// interface here lets crypto stay below membership in the import graph.
type MemberSet interface {
	// Contains reports whether id is a member of the set.
	Contains(id types.ReplicaID) bool
	// Size returns the number of members.
	Size() int
}

// VerifyBlock checks the proposer signature on a block.
func VerifyBlock(k *Keyring, b *types.Block) error { return check{kr: k}.block(b) }

// VerifyVote checks a single vote's signature.
func VerifyVote(k *Keyring, v types.Vote) error { return check{kr: k}.vote(v) }

// VerifyCert checks a certificate's shape and every contained signature.
func VerifyCert(k *Keyring, c *types.Certificate, quorum int) error {
	return check{kr: k}.cert(c, quorum, nil)
}

// VerifyCertIn is VerifyCert pinned to an epoch's validator set: every
// signer must be a member in addition to holding a valid key. This is
// what defeats a removed validator that keeps signing with its old —
// still registered, still valid — key: its signatures verify, but a
// certificate counting it no longer proves a quorum of the epoch.
func VerifyCertIn(k *Keyring, c *types.Certificate, quorum int, set MemberSet) error {
	return check{kr: k}.cert(c, quorum, set)
}

// VerifyUnlockProof checks that the proof establishes the claimed unlock
// under Definition 7.6 with the given threshold (f+p), and that its fast
// votes are genuine.
func VerifyUnlockProof(k *Keyring, u *types.UnlockProof, threshold int) error {
	return check{kr: k}.unlockProof(u, threshold, nil)
}
