package main

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/analysis"
)

var scanWorkload = workload{
	name: "scan",
	why: "The analyzer: a speclint scan pass over 6 spectre variants, 11 MiBench hosts and 960 " +
		"generated gadgets with forced-speculation confirmation; taint and confirm show apart.",
	loops: 1, cycle: 1, minOps: 3,
	setup: setupScan,
}

// scanMaxInstr is speclint scan's confirmation budget.
const scanMaxInstr = 200_000

type scanInst struct {
	noProbe
	images []analysis.ScanImage
	check  *outputCheck

	mu   sync.Mutex
	last *analysis.FindingsReport
}

func setupScan(seed int64, tiny bool, _ string) (instance, error) {
	n := 960
	if tiny {
		n = 24
	}
	images, err := scanCorpus(seed, n, scanMaxInstr)
	if err != nil {
		return nil, err
	}
	if tiny {
		// Keep the three attack variants' images and the generated
		// gadgets; the MiBench hosts take most of a pass's static time.
		var keep []analysis.ScanImage
		for _, im := range images {
			if im.Attack || im.Confirm != nil {
				keep = append(keep, im)
			}
		}
		images = keep
	}
	return &scanInst{images: images, check: newOutputCheck("scan", seed, !tiny)}, nil
}

func (s *scanInst) op(ctx context.Context, _, _ int, tr *tracer) error {
	var (
		rep *analysis.FindingsReport
		err error
	)
	if tr == nil {
		rep, err = analysis.ScanCorpus(ctx, analysis.PolicyUninitSecret, s.images, engineWorkers)
	} else {
		rep, err = scanReplica(ctx, tr, analysis.PolicyUninitSecret, s.images, engineWorkers)
		tr.count("bench.ops", 1)
	}
	if err != nil {
		return err
	}
	if err := rep.GateRanking(); err != nil {
		return err
	}
	blob, err := analysis.EncodeFindings(rep)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.last = rep
	s.mu.Unlock()
	return s.check.check("", blob)
}

func (s *scanInst) finish() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.last == nil {
		return nil, nil
	}
	confirmed := 0
	for _, f := range s.last.Findings {
		if f.Verdict == analysis.VerdictConfirmed {
			confirmed++
		}
	}
	return []string{
		fmt.Sprintf("report: %d images, %d findings (%d confirmed), ranking gate ok", len(s.last.Images), len(s.last.Findings), confirmed),
		s.check.single(),
	}, nil
}

func (s *scanInst) close() {}
