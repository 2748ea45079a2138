package banyan

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"banyan/internal/crypto"
	"banyan/internal/membership"
	"banyan/internal/mempool"
	"banyan/internal/metrics"
	"banyan/internal/node"
	"banyan/internal/obs"
	"banyan/internal/protocol"
	"banyan/internal/stack"
	"banyan/internal/types"
)

// commitBuffer is the capacity of a Commits channel.
const commitBuffer = 1024

// host is one replica as Cluster and Replica both run it: a stack on a
// node, fed by a mempool. What differs between the two is the transport
// the node is given and how many hosts there are.
type host struct {
	id   types.ReplicaID
	opts stack.Options
	surv stack.Survivors
	pool *mempool.Pool
	// reg, when non-nil, holds counters of the host's surroundings
	// (transport drops) that Metrics reports beside the engine's.
	reg *metrics.Registry
	// commits, when non-nil, is the replica's public commit stream: the
	// node goroutine sends each finalized block to it without blocking,
	// and counts in commitsDropped what a full channel refuses.
	commits        chan Commit
	commitsDropped atomic.Int64

	mu   sync.Mutex // guards st and node, which a restart swaps
	st   *stack.Stack
	node *node.Node
}

// newHost provisions replica id's survivors and mempool; build assembles
// the rest.
func newHost(id types.ReplicaID, opts stack.Options, keyring *crypto.Keyring,
	signer *crypto.Signer, walDir string, reg *metrics.Registry) *host {
	pool := opts.NewPool()
	h := &host{
		id:   id,
		opts: opts,
		surv: opts.NewSurvivors(keyring, signer, pool, walDir, reg),
		pool: pool,
		reg:  reg,
	}
	if o := h.surv.Obs; o != nil {
		// Pull-style gauges refresh at scrape time, from whichever stack is
		// current: the pool is stable across restarts, the store and the
		// verifier are not.
		o.OnCollect(func(o *obs.Observer) {
			o.MempoolDepth.Set(int64(pool.Len()))
			st := h.stack()
			if st.Store != nil {
				o.DissemStoreBytes.Set(st.Store.HeldBytes())
			}
			o.SigsVerified.Set(st.Verifier.Verified())
		})
	}
	return h
}

// build assembles (or reassembles, after a crash) the replica's stack and
// its node over tr. The mempool is reused across restarts — submitted
// transactions survive.
func (h *host) build(tr node.Transport, onFault func(error)) error {
	st, err := stack.Build(h.id, h.opts, h.surv)
	if err != nil {
		return err
	}
	var onCommit func(time.Time, protocol.Commit)
	if h.commits != nil {
		onCommit = h.commit
	}
	n, err := node.New(node.Config{
		Engine:    st.Hosted,
		Transport: tr,
		OnCommit:  onCommit,
		OnFault:   onFault,
	})
	if err != nil {
		if st.Recorder != nil {
			st.Recorder.Close()
		}
		return err
	}
	h.mu.Lock()
	h.st, h.node = st, n
	h.mu.Unlock()
	return nil
}

func (h *host) stack() *stack.Stack {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.st
}

// metrics returns the engine counters (plus WAL counters behind a log),
// the registry's counters, the commits the stream dropped and the
// mempool's typed admission rejections. Only valid once the node has
// stopped.
func (h *host) metrics() map[string]int64 {
	h.mu.Lock()
	n := h.node
	h.mu.Unlock()
	m := n.Metrics()
	if m == nil {
		return nil
	}
	if h.reg != nil {
		for name, v := range h.reg.Snapshot() {
			m[name] = v
		}
	}
	m["commits_dropped"] = h.commitsDropped.Load()
	h.pool.Metrics(m)
	return m
}

// members returns the current epoch's validator set. The History handle
// is fixed at engine construction and internally synchronized, so reading
// it while the node loop owns the engine is safe.
func (h *host) members() *membership.ValidatorSet {
	return h.stack().Engine.History().Current()
}

func (h *host) epoch() uint32 { return h.members().Epoch() }

func (h *host) memberIDs() []int {
	set := h.members()
	out := make([]int, set.Size())
	for i, m := range set.Members() {
		out[i] = int(m)
	}
	return out
}

// finalizedChain returns the engine's finalized block IDs (hex, round
// order). The engine must be at rest.
func (h *host) finalizedChain() []string {
	ids := h.stack().Engine.Tree().FinalizedChain()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = id.String()
	}
	return out
}

// configChange builds the change admitting (add) or evicting identity id,
// refusing one outside the provisioned keyring.
func (h *host) configChange(op types.ConfigOp, id int) (types.ConfigChange, error) {
	if id < 0 || id >= h.opts.MaxN {
		return types.ConfigChange{}, fmt.Errorf("banyan: no provisioned identity %d (MaxN=%d)", id, h.opts.MaxN)
	}
	change := types.ConfigChange{Op: op, Replica: types.ReplicaID(id)}
	if op == types.ConfigAdd {
		if change.PubKey = h.surv.Keyring.PublicKey(change.Replica); change.PubKey == nil {
			return change, fmt.Errorf("banyan: no key provisioned for replica %d", id)
		}
	}
	return change, nil
}

// propose hands a change to the replica's reconfiguration slot: the next
// time it leads a round it attaches the change to its proposal, and the
// slot clears when its engine observes the change finalized — whoever
// proposed it.
func (h *host) propose(change types.ConfigChange) { h.surv.Reconfig.Propose(change) }

// commit converts the node's commit action into one public Commit per
// block, on the node's goroutine: the action carries the bodies its
// blocks' refs resolved to, so nothing is read back from the store. A
// Commit the full channel refuses is dropped and counted.
func (h *host) commit(at time.Time, c protocol.Commit) {
	for i, b := range c.Blocks {
		var bodies []*types.Payload
		if c.Bodies != nil {
			bodies = c.Bodies[i]
		}
		select {
		case h.commits <- Commit{
			Round:        uint64(b.Round),
			Epoch:        b.Epoch,
			BlockID:      b.ID().String(),
			Proposer:     int(b.Proposer),
			Transactions: decodeTransactions(b.Payload, bodies),
			PayloadBytes: b.Payload.Size(),
			Path:         pathOf(c.Explicit),
			At:           at,
		}:
		default:
			h.commitsDropped.Add(1)
		}
	}
}

// decodeTransactions resolves a committed payload to its transaction
// list: inline payloads decode directly; digest-list payloads decode
// bodies, the batch bodies delivery resolved for its refs (in ref order,
// without the refs it skips), and then the inline tail.
func decodeTransactions(p types.Payload, bodies []*types.Payload) [][]byte {
	if !p.HasBatches() {
		return mempool.DecodeBatch(p)
	}
	var txs [][]byte
	for _, body := range bodies {
		if txs == nil {
			txs = mempool.DecodeBatch(*body)
		} else {
			txs = append(txs, mempool.DecodeBatch(*body)...)
		}
	}
	if len(p.Data) > 0 {
		txs = append(txs, mempool.DecodeBatch(types.BytesPayload(p.Data))...)
	}
	return txs
}

// faultLog collects the safety faults and log failures a host's replicas
// report (it must stay empty).
type faultLog struct {
	mu     sync.Mutex
	faults []error
}

func (l *faultLog) record(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.faults = append(l.faults, err)
}

func (l *faultLog) list() []error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]error(nil), l.faults...)
}

// closeLog shuts the replica's log down: flushing the tail on a graceful
// stop, abandoning the unsynced group — what a process crash leaves on
// disk — otherwise. A log that died mid-run means the replica has been
// running without durability; that surfaces as a fault rather than
// letting the run report clean.
func (h *host) closeLog(flush bool, faults *faultLog) {
	rec := h.stack().Recorder
	if rec == nil {
		return
	}
	if err := rec.Err(); err != nil {
		faults.record(err)
	}
	if !flush {
		rec.Crash()
	} else if err := rec.Close(); err != nil {
		faults.record(err)
	}
}
