package main

import "time"

// workload is one entry of the benchmark: a name, the reason it exists
// (BENCHMARK.json carries the same sentence), and how to run it.
type workload struct {
	name string
	why  string
	// rt is set for the real-time workloads; the simulation has its own
	// runner.
	rt *rtWorkload
}

func hubBuilder(cfg hubConfig) func(uint64, bool, string) (system, error) {
	return func(seed uint64, traced bool, walDir string) (system, error) {
		return newHub(cfg, seed, traced, walDir)
	}
}

var workloads = []workload{
	{
		name: "delay4_small_closed",
		why:  "Headline latency at low load: n=4 hub, 5 ms injected one-way delay, 8 closed-loop clients of 512 B; critical-path work (sign, verify, engine, node) shows, byte-path work does not.",
		rt: &rtWorkload{
			txSize:     512,
			clients:    8,
			targets:    []int{0, 1, 2, 3},
			victim:     -1,
			blockBytes: 1 << 10,
			build:      hubBuilder(hubConfig{delta: 100 * time.Millisecond, linkDelay: 5 * time.Millisecond}),
		},
	},
	{
		name: "tcp4_256k_saturate",
		why:  "Byte path at saturation: 4 replicas over TCP loopback, no injected delay, 256 KiB blocks kept full by 64 outstanding 16 KiB txs; batch, hash, encode, socket write and decode dominate.",
		rt: &rtWorkload{
			txSize:     16 << 10,
			clients:    64,
			targets:    []int{0, 1, 2, 3},
			victim:     -1,
			blockBytes: 256 << 10,
			tcp:        true,
			build: func(seed uint64, traced bool, _ string) (system, error) {
				return newTCP(seed, traced)
			},
		},
	},
	{
		name: "delay4_crash_open",
		why:  "Degraded mode on a schedule: hub, 5 ms delay, WAL and dissemination on, replica 3 down all window, open loop 200 tx/s timed from due time; timeouts, rank-1 proposals, WAL flush on the path.",
		rt: &rtWorkload{
			txSize:     512,
			rate:       200,
			targets:    []int{0, 1, 2},
			victim:     3,
			blockBytes: 4 << 10,
			wal:        true,
			dissem:     true,
			// Δ is 25 ms, so the 50 ms timeouts that replace the dead leader are
			// on the path every fourth round. They also fire when the host
			// stalls, and the proposals that orphans take their transactions
			// along; the clients send those again (see resubmitAfter).
			build: hubBuilder(hubConfig{delta: 25 * time.Millisecond, linkDelay: 5 * time.Millisecond,
				wal: true, dissem: true}),
		},
	},
	{
		name: simName,
		why:  "Paper Figure 6a size: n=19 f=6 on the simulated 4-datacenter WAN, 64 KiB blocks, ed25519; latency is virtual time and exact per seed, CPU and allocation per round scale with 19^2 messages.",
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
