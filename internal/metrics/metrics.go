// Package metrics derives per-node and per-message statistics from a
// recorded execution: broadcast/receive counts, acknowledgment latencies,
// message dissemination latencies, and grey-zone link usage. The harness
// and cmd/amacsim use it for reporting; tests use it to assert behavioral
// properties that raw completion times cannot express.
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"amac/internal/mac"
	"amac/internal/sim"
	"amac/internal/topology"
)

// NodeStats aggregates one node's activity.
type NodeStats struct {
	Broadcasts int
	Receives   int
	Acks       int
	Aborts     int
}

// MsgStats aggregates one MMB message's dissemination.
type MsgStats struct {
	ArriveAt     sim.Time
	FirstDeliver sim.Time
	LastDeliver  sim.Time
	Deliveries   int
}

// Latency returns the arrival-to-full-dissemination latency.
func (m MsgStats) Latency() sim.Time { return m.LastDeliver - m.ArriveAt }

// Report is the full metrics bundle for one execution.
type Report struct {
	Nodes []NodeStats
	// Msgs keys by the algorithm-level message value (core.Msg in the MMB
	// runners).
	Msgs map[any]*MsgStats
	// AckLatencies collects bcast→ack times across all acked instances.
	AckLatencies []sim.Time
	// GreyDeliveries counts receives that crossed a G′\G edge;
	// ReliableDeliveries counts the rest.
	GreyDeliveries     int
	ReliableDeliveries int
	// TotalInstances counts broadcast instances; Aborted counts aborted
	// ones.
	TotalInstances int
	Aborted        int
}

// Collect builds a Report from a finished engine's instances and trace.
func Collect(d *topology.Dual, insts []*mac.Instance, trace *sim.Trace) *Report {
	r := &Report{
		Nodes: make([]NodeStats, d.N()),
		Msgs:  make(map[any]*MsgStats),
	}
	for _, b := range insts {
		r.TotalInstances++
		r.Nodes[b.Sender].Broadcasts++
		switch b.Term {
		case mac.Acked:
			r.Nodes[b.Sender].Acks++
			r.AckLatencies = append(r.AckLatencies, b.TermAt-b.Start)
		case mac.Aborted:
			r.Aborted++
			r.Nodes[b.Sender].Aborts++
		}
		for to := range b.Receivers() {
			r.Nodes[to].Receives++
			if d.G.HasEdge(b.Sender, to) {
				r.ReliableDeliveries++
			} else {
				r.GreyDeliveries++
			}
		}
	}
	for _, ev := range trace.Events() {
		switch ev.Kind {
		case "arrive":
			ms := r.msg(ev.Value())
			ms.ArriveAt = ev.At
		case "deliver":
			ms := r.msg(ev.Value())
			if ms.Deliveries == 0 || ev.At < ms.FirstDeliver {
				ms.FirstDeliver = ev.At
			}
			if ev.At > ms.LastDeliver {
				ms.LastDeliver = ev.At
			}
			ms.Deliveries++
		}
	}
	sort.Slice(r.AckLatencies, func(i, j int) bool { return r.AckLatencies[i] < r.AckLatencies[j] })
	return r
}

func (r *Report) msg(key any) *MsgStats {
	ms, ok := r.Msgs[key]
	if !ok {
		ms = &MsgStats{}
		r.Msgs[key] = ms
	}
	return ms
}

// MaxAckLatency returns the worst bcast→ack time (0 when none acked).
func (r *Report) MaxAckLatency() sim.Time {
	if len(r.AckLatencies) == 0 {
		return 0
	}
	return r.AckLatencies[len(r.AckLatencies)-1]
}

// MedianAckLatency returns the median bcast→ack time (0 when none acked).
func (r *Report) MedianAckLatency() sim.Time {
	if len(r.AckLatencies) == 0 {
		return 0
	}
	return r.AckLatencies[len(r.AckLatencies)/2]
}

// TotalBroadcasts sums broadcasts over all nodes.
func (r *Report) TotalBroadcasts() int {
	total := 0
	for _, ns := range r.Nodes {
		total += ns.Broadcasts
	}
	return total
}

// MaxNodeBroadcasts returns the busiest node's broadcast count and ID.
func (r *Report) MaxNodeBroadcasts() (node int, count int) {
	for i, ns := range r.Nodes {
		if ns.Broadcasts > count {
			node, count = i, ns.Broadcasts
		}
	}
	return node, count
}

// String renders a human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "instances: %d (%d aborted)\n", r.TotalInstances, r.Aborted)
	fmt.Fprintf(&b, "deliveries: %d reliable, %d grey-zone\n",
		r.ReliableDeliveries, r.GreyDeliveries)
	fmt.Fprintf(&b, "ack latency: median %v, max %v\n",
		r.MedianAckLatency(), r.MaxAckLatency())
	busiest, count := r.MaxNodeBroadcasts()
	fmt.Fprintf(&b, "busiest node: %d with %d broadcasts\n", busiest, count)
	if len(r.Msgs) > 0 {
		var worst sim.Time
		for _, ms := range r.Msgs {
			if ms.Latency() > worst {
				worst = ms.Latency()
			}
		}
		fmt.Fprintf(&b, "worst message latency: %v over %d messages\n", worst, len(r.Msgs))
	}
	return b.String()
}
