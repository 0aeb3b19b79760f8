package distbuild

import "repro/internal/observe"

// metrics is the bundle of distbuild instrument families. On a nil
// observe registry its instruments still count but are never exported.
type metrics struct {
	leasesGranted    *observe.Counter
	leasesExpired    *observe.Counter
	leasesReassigned *observe.Counter
	heartbeats       *observe.Counter
	shardsAccepted   *observe.Counter
	shardsDuplicate  *observe.Counter
	shardsRejected   *observe.CounterVec
}

func newMetrics(r *observe.Registry) *metrics {
	return &metrics{
		leasesGranted: r.Counter("autodetect_distbuild_leases_granted_total",
			"Partition leases granted to workers."),
		leasesExpired: r.Counter("autodetect_distbuild_leases_expired_total",
			"Leases lapsed after missed heartbeats."),
		leasesReassigned: r.Counter("autodetect_distbuild_leases_reassigned_total",
			"Grants of a partition whose earlier lease lapsed."),
		heartbeats: r.Counter("autodetect_distbuild_heartbeats_total",
			"Lease renewals accepted."),
		shardsAccepted: r.Counter("autodetect_distbuild_shards_accepted_total",
			"Statistic shards validated and merged into the build."),
		shardsDuplicate: r.Counter("autodetect_distbuild_shards_duplicate_total",
			"Re-uploads of already-accepted shards, acknowledged and discarded."),
		shardsRejected: r.CounterVec("autodetect_distbuild_shards_rejected_total",
			"Shard uploads refused, by reason (integrity, fingerprint, conflict, request).",
			"reason"),
	}
}

// registerGauges wires the build-progress gauges, which read live
// coordinator state rather than accumulating.
func (c *Coordinator) registerGauges(r *observe.Registry) {
	r.GaugeFunc("autodetect_distbuild_partitions",
		"Partitions the corpus is split into.",
		func() float64 { return float64(len(c.table.states)) })
	r.GaugeFunc("autodetect_distbuild_partitions_done",
		"Partitions whose shard has been accepted.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.table.done)
		})
	r.GaugeFunc("autodetect_distbuild_workers_alive",
		"Workers holding an unexpired lease right now.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.table.tick(c.now())
			alive := map[string]bool{}
			for i, st := range c.table.states {
				if st == stateLeased {
					alive[c.table.workers[i]] = true
				}
			}
			return float64(len(alive))
		})
}
