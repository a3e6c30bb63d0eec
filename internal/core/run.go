package core

import (
	"repro/internal/dataset"
	"repro/internal/trace"
)

// Run clusters src on the simulated machine according to cfg: it
// validates the configuration against the level's capacity
// constraints, derives the partition plan, executes the selected
// engine functionally, and reports centroids, assignments, simulated
// per-iteration times and the traffic breakdown.
func Run(cfg Config, src dataset.Source) (*Result, error) {
	cfg = cfg.withDefaults()
	if !cfg.Faults.Empty() && cfg.Stats == nil {
		// The resilient driver accounts recovery cost through the trace
		// counters, so it always needs a sink.
		cfg.Stats = trace.NewStats()
	}
	var plan Plan
	var err error
	if cfg.Level == LevelAuto {
		plan, err = ChooseLevel(cfg, src.N(), src.D())
		if err != nil {
			return nil, err
		}
		cfg.Level = plan.Level
	} else {
		plan, err = PlanFor(cfg, src.N(), src.D())
		if err != nil {
			return nil, err
		}
	}
	var before trace.Snapshot
	if cfg.Stats != nil {
		before = cfg.Stats.Snapshot()
	}
	init, err := initialCentroids(cfg, src)
	if err != nil {
		return nil, err
	}
	res, err := runEngine(cfg, src, plan, engineFor(plan), init)
	if err != nil {
		return nil, err
	}
	if cfg.Stats != nil {
		res.Traffic = cfg.Stats.Snapshot().Sub(before)
	}
	return res, nil
}
