package stack

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"banyan/internal/mempool"
	"banyan/internal/protocol"
)

// TestBuildByProtocolAndFeature assembles Banyan, with and without the
// fast path, with each feature that is not universal — a log,
// dissemination, observers, provisioned joiners — and checks that each
// yields exactly the parts it should.
func TestBuildByProtocolAndFeature(t *testing.T) {
	features := []struct {
		name string
		set  func(o *Options, dir string)
	}{
		{name: "plain", set: func(*Options, string) {}},
		{name: "wal", set: func(o *Options, dir string) { o.WALDir = dir }},
		{name: "dissem", set: func(o *Options, _ string) { o.Dissem = true }},
		{name: "obs", set: func(o *Options, _ string) { o.Obs = true }},
		{name: "maxn", set: func(o *Options, _ string) { o.MaxN = 6 }},
	}
	for _, proto := range []string{"banyan", "banyan-nofast"} {
		for _, f := range features {
			t.Run(fmt.Sprintf("%s/%s", proto, f.name), func(t *testing.T) {
				o := Options{N: 4, Delta: 10 * time.Millisecond, Scheme: "hmac",
					DisableFastPath: proto == "banyan-nofast"}
				f.set(&o, t.TempDir())
				o, err := o.Fill()
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
				if got := st.Engine.Protocol(); got != proto || st.Engine.ID() != 1 {
					t.Fatalf("built a %q engine for replica %d", got, st.Engine.ID())
				}
				if st.Verifier == nil || surv.Reconfig == nil {
					t.Errorf("verifier present = %v, reconfiguration slot present = %v",
						st.Verifier != nil, surv.Reconfig != nil)
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
				var wantHosted protocol.Engine = st.Engine
				if st.Recorder != nil {
					wantHosted = st.Recorder
					if !strings.HasSuffix(surv.WALDir, "replica-1") {
						t.Errorf("log directory %q, want one per replica", surv.WALDir)
					}
				}
				if st.Hosted != wantHosted {
					t.Errorf("the host drives %T, want %T", st.Hosted, wantHosted)
				}
			})
		}
	}
}

// TestFillDefaultsAndRefusals covers the cross-knob rules and the
// defaults the hosts share.
func TestFillDefaultsAndRefusals(t *testing.T) {
	base := Options{N: 4, Delta: 10 * time.Millisecond}
	for name, tc := range map[string]struct {
		mangle func(*Options)
		want   string
	}{
		"no replicas":  {func(o *Options) { o.N = 0 }, "banyan: need N > 0"},
		"MaxN below N": {func(o *Options) { o.MaxN = 3 }, "banyan: MaxN 3 below N 4"},
		"no Delta":     {func(o *Options) { o.Delta = 0 }, "banyan: Delta must be positive"},
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
	want.F, want.P, want.MaxN = 1, 1, 4
	want.BlockBytes, want.DissemBatchBytes = 1<<20, 64<<10
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
