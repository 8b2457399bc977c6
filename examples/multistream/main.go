// Parallel streams: clustering several substreams at once.
//
// Telemetry rarely arrives on one socket. This example runs four producer
// goroutines — say, four collectors in different regions — each feeding its
// own shard of a Concurrent clusterer. A monitoring goroutine issues global
// clustering queries concurrently. Per the coreset union property
// (Observation 1 in the paper), merging the shard summaries at query time
// gives a valid coreset of the combined stream, so the global centers match
// what a single-stream clusterer would have found.
//
// Run with:
//
//	go run ./examples/multistream
package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"streamkm"
)

func main() {
	const (
		shards   = 4
		perShard = 25000
		k        = 5
	)
	s, err := streamkm.NewConcurrent(streamkm.AlgoCC, shards, streamkm.Config{K: k, Seed: 1})
	if err != nil {
		panic(err)
	}

	// Ground truth: 5 activity patterns shared by all regions.
	blobs := [][2]float64{{0, 0}, {40, 0}, {0, 40}, {40, 40}, {20, 20}}

	var produced int64
	var wg sync.WaitGroup
	start := time.Now()
	for sh := 0; sh < shards; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(10 + sh)))
			for i := 0; i < perShard; i++ {
				b := blobs[rng.Intn(len(blobs))]
				s.AddTo(sh, streamkm.Point{b[0] + rng.NormFloat64(), b[1] + rng.NormFloat64()})
				atomic.AddInt64(&produced, 1)
			}
		}(sh)
	}

	// Live monitoring: query while the producers are still running.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			n := atomic.LoadInt64(&produced)
			if n >= shards*perShard {
				return
			}
			centers := s.Centers()
			fmt.Printf("  live query at ~%6d points: %d centers\n", n, len(centers))
			time.Sleep(30 * time.Millisecond)
		}
	}()
	wg.Wait()
	<-done

	centers := s.Refresh() // an answer covering every point, not the cached one
	fmt.Printf("\n%s consumed %d points across %d shards in %v\n",
		s.Name(), shards*perShard, shards, time.Since(start).Round(time.Millisecond))
	fmt.Printf("memory: %d stored points total\n\nfinal centers:\n", s.PointsStored())
	for _, c := range centers {
		fmt.Printf("   (%6.2f, %6.2f)\n", c[0], c[1])
	}
	fmt.Println("\neach true pattern is recovered from the merged shard summaries.")
}
