package banyan

import (
	"reflect"
	"testing"

	"banyan/internal/core"
	"banyan/internal/dissem"
	"banyan/internal/harness"
	"banyan/internal/hotstuff"
	"banyan/internal/icc"
	"banyan/internal/node"
	"banyan/internal/stack"
	"banyan/internal/streamlet"
	"banyan/internal/transport/tcp"
)

// TestOptionsReadEveryField: a field added to one of the three public
// configurations and not threaded through its options mapping fails here.
// The fields named are each host's own business — addresses, schedules,
// link models — and must leave the stack's options alone.
func TestOptionsReadEveryField(t *testing.T) {
	t.Run("ClusterConfig", func(t *testing.T) {
		everyFieldRead(t, ClusterConfig.options, "HoldStart")
	})
	t.Run("ReplicaConfig", func(t *testing.T) {
		everyFieldRead(t, ReplicaConfig.options, "ID", "ListenAddr", "Peers", "Logf")
	})
	t.Run("harness.Config", func(t *testing.T) {
		// Protocol picks the engine in Run; of it the stack sees only the
		// fast-path ablation, which a protocol named "x" is not.
		everyFieldRead(t, harness.Config.Options,
			"Protocol", "Topology", "Duration", "Warmup", "BandwidthBps", "ProcRateBps", "ProcFixed",
			"JitterFrac", "Crash")
	})
}

// TestConfigFieldCounts pins how many knobs each configuration layer
// has. A knob with one value in use is a constant, and one the code can
// work out is no knob at all; a count that moves up needs the reason
// ROADMAP's ground rules ask for, and one that moves down updates the pin.
func TestConfigFieldCounts(t *testing.T) {
	for _, c := range []struct {
		cfg  any
		want int
	}{
		{ClusterConfig{}, 14},
		{ReplicaConfig{}, 20},
		{harness.Config{}, 18},
		{stack.Options{}, 17},
		{node.Config{}, 5},
		{core.Config{}, 14},
		{dissem.Config{}, 6},
		{tcp.Config{}, 7},
		{icc.Config{}, 7},
		{hotstuff.Config{}, 6},
		{streamlet.Config{}, 6},
	} {
		if got := reflect.TypeOf(c.cfg).NumField(); got != c.want {
			t.Errorf("%T has %d fields, pinned at %d: ROADMAP's ground rules admit no new config "+
				"field without a stated reason it must exist; update the pin with that reason", c.cfg, got, c.want)
		}
	}
}

// everyFieldRead sets every field of the zero configuration C non-zero,
// one at a time (struct-typed fields leaf by leaf), and fails the test for
// each one options does not react to — a knob declared but not threaded —
// unless hostOnly names it, in which case it must not react.
func everyFieldRead[C any](t *testing.T, options func(C) stack.Options, hostOnly ...string) {
	t.Helper()
	var zero C
	base := options(zero)
	exempt := make(map[string]bool, len(hostOnly))
	for _, name := range hostOnly {
		exempt[name] = true
	}
	var visit func(path string, index []int, ft reflect.Type)
	visit = func(path string, index []int, ft reflect.Type) {
		if ft.Kind() == reflect.Struct && !exempt[path] {
			for i := 0; i < ft.NumField(); i++ {
				f := ft.Field(i)
				visit(path+"."+f.Name, append(index[:len(index):len(index)], i), f.Type)
			}
			return
		}
		cfg := reflect.New(reflect.TypeOf(zero)).Elem()
		setNonZero(cfg.FieldByIndex(index))
		moved := !reflect.DeepEqual(base, options(cfg.Interface().(C)))
		switch {
		case exempt[path] && moved:
			t.Errorf("%s is listed as host-only but moves the options", path)
		case !exempt[path] && !moved:
			t.Errorf("options() ignores %s: thread it through stack.Options, or list it as host-only", path)
		}
		delete(exempt, path)
	}
	rt := reflect.TypeOf(zero)
	for i := 0; i < rt.NumField(); i++ {
		visit(rt.Field(i).Name, []int{i}, rt.Field(i).Type)
	}
	for name := range exempt {
		t.Errorf("host-only field %s does not exist", name)
	}
}

func setNonZero(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(3)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(3)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(3)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(reflect.Zero(v.Type().Key()), reflect.Zero(v.Type().Elem()))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value { return nil }))
	default:
		panic("no non-zero value for kind " + v.Kind().String())
	}
}
