package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// RebuildPending drives every replacement-pending device back online,
// scheduling across groups: at most Config.MaxConcurrentRebuilds groups
// rebuild at once, groups with the most incomplete devices (then the
// most missing stripes) go first, and within one group pending disks
// rebuild sequentially — its n backends are the fan-out limit anyway,
// and the paper's shifted arrangement already spreads each rebuild
// across all of them.
//
// Each round reads the placement afresh from the children, and the
// scheduler loops until a round finds nothing pending, so devices that
// fail or get replaced *while* it runs are picked up by the next round.
// Per-device rebuild errors are collected (errors.Join) and returned
// after the pass; a cancelled ctx stops between devices.
func (s *ShardedVolume) RebuildPending(ctx context.Context) error {
	var all []error
	for {
		if err := ctx.Err(); err != nil {
			return errors.Join(append(all, err)...)
		}
		queue := s.Placement().pressure()
		work := queue[:0]
		for _, gp := range queue {
			if len(gp.pending) > 0 {
				work = append(work, gp)
			}
		}
		if len(work) == 0 {
			return errors.Join(all...)
		}

		sem := make(chan struct{}, s.cfg.MaxConcurrentRebuilds)
		var (
			wg    sync.WaitGroup
			errMu sync.Mutex
		)
		roundErrs := 0
		for _, gp := range work {
			sem <- struct{}{} // acquire in priority order
			wg.Add(1)
			go func(gp groupPressure) {
				defer wg.Done()
				defer func() { <-sem }()
				for _, disk := range gp.pending {
					if ctx.Err() != nil {
						return
					}
					if err := s.RebuildDisk(ctx, gp.group, disk); err != nil {
						errMu.Lock()
						all = append(all, fmt.Errorf("group %d disk %v: %w", gp.group, disk, err))
						roundErrs++
						errMu.Unlock()
					}
				}
			}(gp)
		}
		wg.Wait()
		// A round where every attempt failed will not converge — stop
		// instead of spinning on the same broken devices.
		if roundErrs > 0 && roundErrs >= len(work) {
			return errors.Join(all...)
		}
	}
}
