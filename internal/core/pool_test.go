package core

import (
	"math/rand"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// poolWorkload mirrors the perf harness fixture: a 500-POI field on a
// 32×32 area and 64 sound peers.
func poolWorkload() (geom.Point, []PeerData, *broadcast.Schedule) {
	rng := rand.New(rand.NewSource(2))
	db := make([]broadcast.POI, 500)
	for i := range db {
		db[i] = broadcast.POI{ID: int64(i), Pos: geom.Pt(rng.Float64()*32, rng.Float64()*32)}
	}
	peers := make([]PeerData, 0, 64)
	for i := 0; i < 64; i++ {
		cx, cy := 12+rng.Float64()*8, 12+rng.Float64()*8
		vr := geom.NewRect(cx, cy, cx+3+rng.Float64()*4, cy+3+rng.Float64()*4)
		pd := PeerData{VR: vr, Tainted: i%7 == 3}
		for _, p := range db {
			if vr.Contains(p.Pos) {
				pd.POIs = append(pd.POIs, p)
			}
		}
		peers = append(peers, pd)
	}
	sched, err := broadcast.NewSchedule(db, broadcast.Config{Area: geom.NewRect(0, 0, 32, 32)})
	if err != nil {
		panic(err)
	}
	return geom.Pt(16, 16), peers, sched
}
