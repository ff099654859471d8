package serve

import (
	"context"
	"sync/atomic"
)

// ParkAfterFirstCheckpoint holds the first job of s that reaches a
// checkpoint right after that checkpoint becomes exportable, until the
// job's run is canceled (a detach cancels it). The returned channel
// receives the job's ID when it parks.
func ParkAfterFirstCheckpoint(s *Server) <-chan uint64 {
	parked := make(chan uint64, 1)
	var taken atomic.Bool
	s.afterCheckpoint = func(ctx context.Context, id uint64) {
		if !taken.CompareAndSwap(false, true) {
			return
		}
		parked <- id
		<-ctx.Done()
	}
	return parked
}
