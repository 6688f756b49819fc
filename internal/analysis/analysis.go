// Package analysis provides the probabilistic model of the sharing hit
// ratio (contribution (d) of the paper: "we evaluate our approach by a
// probabilistic analysis of the hit ratio in sharing").
//
// Model assumptions, stated explicitly so the analysis-vs-simulation
// experiment can interrogate them:
//
//  1. Mobile hosts form a planar Poisson field of density ρ, so the
//     number of peers inside the transmission disk πR² is Poisson with
//     mean ρπR².
//  2. POIs form a planar Poisson field of density λ; the k-th NN distance
//     is then concentrated near r_k = sqrt(k/(πλ)).
//  3. A peer's cache covers a square verified region of total area
//     A = CacheSize/λ (each cached POI accounts for ~1/λ of verified
//     area), centered at a point uniformly distributed inside the peer's
//     locality disk of radius D (how far its knowledge lags behind its
//     position).
//  4. Peers contribute independently.
//
// Under these assumptions the probability that at least one reachable
// peer can fully answer a kNN query is 1 − exp(−ρπR² · p₁), where p₁ is
// the per-peer success probability computed from the margin geometry: the
// query verifies only if the query point sits at least r_k inside a
// verified region.
package analysis

import "math"

// Model carries the densities and radio/cache parameters of a scenario.
// Distances are miles; densities are per square mile.
type Model struct {
	// MHDensity is the mobile-host density ρ.
	MHDensity float64
	// POIDensity is the POI density λ.
	POIDensity float64
	// TxRangeMiles is the transmission radius R.
	TxRangeMiles float64
	// CacheSize is the per-host cache capacity in POIs (CSize).
	CacheSize int
	// LocalityMiles is the radius D of the disk over which a peer's
	// cached knowledge is spread around its current position.
	LocalityMiles float64
}

// ExpectedPeers returns ρπR², the mean number of peers inside the
// transmission disk.
func (m Model) ExpectedPeers() float64 {
	return m.MHDensity * math.Pi * m.TxRangeMiles * m.TxRangeMiles
}

// PeerCoverageArea returns the expected verified area A one peer's cache
// spans: CacheSize POIs at density λ cover about CacheSize/λ square
// miles, capped by the locality disk the knowledge is spread over.
func (m Model) PeerCoverageArea() float64 {
	a := float64(m.CacheSize) / m.POIDensity
	cap := math.Pi * m.LocalityMiles * m.LocalityMiles
	return math.Min(a, cap)
}

// KNNRadius returns r_k = sqrt(k/(πλ)), the expected k-th NN distance
// under a Poisson POI field.
func (m Model) KNNRadius(k int) float64 {
	if k < 1 {
		k = 1
	}
	return math.Sqrt(float64(k) / (math.Pi * m.POIDensity))
}

// SinglePeerKNNHitProb returns p₁ for a kNN query: the probability that
// one random peer's verified region contains the query point with at
// least r_k of clearance. With A modeled as a square of side L, the
// query point must fall in the (L−2r_k)² core, itself landing uniformly
// in the locality disk πD².
func (m Model) SinglePeerKNNHitProb(k int) float64 {
	side := math.Sqrt(m.PeerCoverageArea())
	core := side - 2*m.KNNRadius(k)
	if core <= 0 {
		return 0
	}
	p := core * core / (math.Pi * m.LocalityMiles * m.LocalityMiles)
	return math.Min(p, 1)
}

// KNNHitRatio returns the predicted fraction of kNN queries answered
// entirely by peers: 1 − exp(−E[peers]·p₁), the void probability of the
// thinned Poisson field of "helpful" peers.
func (m Model) KNNHitRatio(k int) float64 {
	return 1 - math.Exp(-m.ExpectedPeers()*m.SinglePeerKNNHitProb(k))
}

// ProbAtLeastOnePeer returns 1 − exp(−ρπR²): the chance any peer at all
// is reachable — an upper bound on every hit ratio.
func (m Model) ProbAtLeastOnePeer() float64 {
	return 1 - math.Exp(-m.ExpectedPeers())
}
