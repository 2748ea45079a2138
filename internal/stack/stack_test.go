package stack

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"banyan/internal/mempool"
)

var protocols = []Protocol{Banyan, BanyanNoFast, ICC, HotStuff, Streamlet}

// TestBuildByProtocolAndFeature assembles every protocol with each feature
// that is not universal — a log, dissemination, observers, provisioned
// joiners — and checks that a combination the protocol does not support is
// refused by Fill with the message the hosts have always returned, and that
// a supported one yields exactly the parts it should.
func TestBuildByProtocolAndFeature(t *testing.T) {
	features := []struct {
		name string
		set  func(o *Options, dir string)
		// refusal is the Fill error of a baseline protocol ("" = supported
		// everywhere).
		refusal string
	}{
		{name: "plain", set: func(*Options, string) {}},
		{name: "wal", set: func(o *Options, dir string) { o.WALDir = dir }},
		{name: "dissem", set: func(o *Options, _ string) { o.Dissem = true },
			refusal: "banyan: Dissem requires a Banyan protocol, got %q"},
		{name: "obs", set: func(o *Options, _ string) { o.Obs = true }},
		{name: "maxn", set: func(o *Options, _ string) { o.MaxN = 6 },
			refusal: "banyan: MaxN requires a Banyan protocol, got %q"},
	}
	for _, proto := range protocols {
		for _, f := range features {
			t.Run(fmt.Sprintf("%s/%s", proto, f.name), func(t *testing.T) {
				o := Options{Protocol: proto, N: 4, Delta: 10 * time.Millisecond, Scheme: "hmac"}
				f.set(&o, t.TempDir())
				o, err := o.Fill()
				if f.refusal != "" && !proto.IsBanyan() {
					if want := fmt.Sprintf(f.refusal, proto); err == nil || err.Error() != want {
						t.Fatalf("Fill error = %v, want %q", err, want)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				keyring, signers, err := o.Keys()
				if err != nil {
					t.Fatal(err)
				}
				if keyring.N() != o.MaxN || len(signers) != o.MaxN {
					t.Fatalf("%d keys and %d signers for MaxN %d", keyring.N(), len(signers), o.MaxN)
				}
				surv := o.NewSurvivors(keyring, signers[1], o.NewPool(), o.ReplicaWALDir(1), nil)
				st, err := Build(1, o, surv)
				if err != nil {
					t.Fatal(err)
				}
				if st.Recorder != nil {
					defer st.Recorder.Close()
				}
				if got := st.Engine.Protocol(); got != string(proto) || st.Engine.ID() != 1 {
					t.Fatalf("built a %q engine for replica %d", got, st.Engine.ID())
				}
				// The Banyan-only parts.
				if (st.Verifier != nil) != proto.IsBanyan() {
					t.Errorf("verifier present = %v for %s", st.Verifier != nil, proto)
				}
				if (surv.Reconfig != nil) != proto.IsBanyan() {
					t.Errorf("reconfiguration slot present = %v for %s", surv.Reconfig != nil, proto)
				}
				// The optional parts follow their knob and nothing else.
				if (st.Store != nil) != o.Dissem {
					t.Errorf("store present = %v with Dissem = %v", st.Store != nil, o.Dissem)
				}
				if (surv.Obs != nil) != o.Obs {
					t.Errorf("observer present = %v with Obs = %v", surv.Obs != nil, o.Obs)
				}
				if (st.Recorder != nil) != (o.WALDir != "") {
					t.Errorf("recorder present = %v with WALDir %q", st.Recorder != nil, o.WALDir)
				}
				wantHosted := st.Engine
				if st.Recorder != nil {
					wantHosted = st.Recorder
					if !strings.HasSuffix(surv.WALDir, "replica-1") {
						t.Errorf("log directory %q, want one per replica", surv.WALDir)
					}
				}
				if st.Hosted != wantHosted {
					t.Errorf("the host drives %T, want %T", st.Hosted, wantHosted)
				}
				// Checkpointing needs an engine that can summarize itself.
				every := checkpointEvery(st.Engine, o.WALCheckpointRounds)
				if want := defaultWALCheckpointRounds; proto.IsBanyan() && int(every) != want {
					t.Errorf("checkpoint cadence %d, want the default %d", every, want)
				} else if !proto.IsBanyan() && every != 0 {
					t.Errorf("baseline %s is checkpointed every %d rounds", proto, every)
				}
				if checkpointEvery(st.Engine, -1) != 0 {
					t.Error("a negative cadence must disable checkpointing")
				}
			})
		}
	}
}

// TestFillDefaultsAndRefusals covers the cross-knob rules that do not
// depend on the protocol, and the defaults the hosts share.
func TestFillDefaultsAndRefusals(t *testing.T) {
	base := Options{N: 4, Delta: 10 * time.Millisecond}
	for name, tc := range map[string]struct {
		mangle func(*Options)
		want   string
	}{
		"no replicas":      {func(o *Options) { o.N = 0 }, "banyan: need N > 0"},
		"MaxN below N":     {func(o *Options) { o.MaxN = 3 }, "banyan: MaxN 3 below N 4"},
		"no Delta":         {func(o *Options) { o.Delta = 0 }, "banyan: Delta must be positive"},
		"unknown protocol": {func(o *Options) { o.Protocol = "pbft"; o.F = 1 }, `banyan: unknown protocol "pbft"`},
	} {
		o := base
		tc.mangle(&o)
		if _, err := o.Fill(); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Fill error = %v, want %q", name, err, tc.want)
		}
	}

	o, err := base.Fill()
	if err != nil {
		t.Fatal(err)
	}
	want := base
	want.Protocol, want.F, want.P, want.MaxN = Banyan, 1, 1, 4
	want.ViewTimeout, want.EpochDuration = 60*time.Millisecond, 20*time.Millisecond
	want.BlockBytes, want.DissemBatchBytes, want.WALCheckpointRounds = 1<<20, 64<<10, 16
	if o != want {
		t.Fatalf("filled options\n got %+v\nwant %+v", o, want)
	}
	if again, err := o.Fill(); err != nil || again != o {
		t.Fatalf("Fill is not idempotent: %+v, %v", again, err)
	}
	if o.ReplicaWALDir(2) != "" {
		t.Error("a replica log directory without WALDir")
	}
}

// TestNewPoolShardsUnderDissem: the dissemination batch size, not the
// block size, caps a transaction once batches carry them.
func TestNewPoolShardsUnderDissem(t *testing.T) {
	o, err := Options{N: 4, Delta: time.Millisecond, BlockBytes: 1 << 10, Dissem: true, DissemBatchBytes: 256}.Fill()
	if err != nil {
		t.Fatal(err)
	}
	if err := o.NewPool().SubmitErr(make([]byte, 512)); err != mempool.ErrTxTooLarge {
		t.Fatalf("512-byte transaction against 256-byte batches: %v, want ErrTxTooLarge", err)
	}
	o.Dissem = false
	if err := o.NewPool().SubmitErr(make([]byte, 512)); err != nil {
		t.Fatalf("512-byte transaction against 1 KiB blocks: %v", err)
	}
}
