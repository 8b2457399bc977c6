package streamkm_test

import (
	"bytes"
	"fmt"
	"math/rand"

	"streamkm"
)

// A fixed miniature stream used by the examples: three tight blobs.
func exampleStream(n int) []streamkm.Point {
	rng := rand.New(rand.NewSource(7))
	blobs := [][2]float64{{0, 0}, {100, 0}, {0, 100}}
	pts := make([]streamkm.Point, n)
	for i := range pts {
		b := blobs[i%3]
		pts[i] = streamkm.Point{b[0] + rng.NormFloat64(), b[1] + rng.NormFloat64()}
	}
	return pts
}

func ExampleNew() {
	c, err := streamkm.New(streamkm.AlgoCC, streamkm.Config{K: 3, Seed: 1})
	if err != nil {
		panic(err)
	}
	for _, p := range exampleStream(3000) {
		c.Add(p)
	}
	centers := c.Centers()
	fmt.Println("centers:", len(centers))
	fmt.Println("dims:", len(centers[0]))
	// Output:
	// centers: 3
	// dims: 2
}

func ExampleCost() {
	points := []streamkm.Point{{0, 0}, {2, 0}}
	centers := []streamkm.Point{{1, 0}}
	fmt.Println(streamkm.Cost(points, centers))
	// Output: 2
}

func ExampleKMedianCost() {
	points := []streamkm.Point{{3, 4}}
	centers := []streamkm.Point{{0, 0}}
	fmt.Println(streamkm.KMedianCost(points, centers))
	// Output: 5
}

func ExampleSave() {
	c := streamkm.MustNew(streamkm.AlgoCC, streamkm.Config{K: 3, Seed: 1})
	for _, p := range exampleStream(1500) {
		c.Add(p)
	}

	var snapshot bytes.Buffer
	if err := streamkm.Save(&snapshot, c); err != nil {
		panic(err)
	}
	restored, err := streamkm.Load(&snapshot, streamkm.Config{Seed: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println("algorithm:", restored.Name())
	fmt.Println("same memory:", restored.PointsStored() == c.PointsStored())
	// Output:
	// algorithm: CC
	// same memory: true
}

func ExampleNewDecayed() {
	// Half-life of 500 points: recent data dominates the clustering.
	c, err := streamkm.NewDecayed(streamkm.AlgoCC, streamkm.Config{K: 2, Seed: 1}, 500)
	if err != nil {
		panic(err)
	}
	for _, p := range exampleStream(2000) {
		c.Add(p)
	}
	fmt.Println("algorithm:", c.Name())
	fmt.Println("centers:", len(c.Centers()))
	// Output:
	// algorithm: Decay(CC)
	// centers: 2
}
