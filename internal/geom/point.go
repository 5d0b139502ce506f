// Package geom provides geometry on the unit torus O = [0,1)^2 with
// wrap-around distances, square and hexagonal tessellations, and simple
// regions used as graph cuts.
//
// The paper (Definition 1) normalizes the network extension to a unit
// torus; all distances in this module are torus distances, i.e. the
// Euclidean distance between the closest pair of images under wrapping.
package geom

import "math"

// Point is a location on the unit torus. Coordinates are kept in [0,1).
type Point struct {
	X, Y float64
}

// Wrap maps a scalar coordinate into [0,1).
func Wrap(x float64) float64 {
	x -= math.Floor(x)
	// math.Floor guarantees x in [0,1) except for the pathological case
	// where rounding yields exactly 1.0 (e.g. x = -1e-18).
	if x >= 1 {
		x = 0
	}
	return x
}

// Pt constructs a wrapped point from arbitrary coordinates.
func Pt(x, y float64) Point {
	return Point{X: Wrap(x), Y: Wrap(y)}
}

// Wrapped returns the point with both coordinates wrapped into [0,1).
func (p Point) Wrapped() Point {
	return Point{X: Wrap(p.X), Y: Wrap(p.Y)}
}

// Delta returns the signed minimal displacement from a to b on the unit
// circle. Both coordinates must lie in [0,1), the Point invariant that
// Pt and Wrapped establish: the raw difference then lies in (-1,1) and
// the reduction to the nearest representative takes two comparisons.
// The result lies in [-1/2, 1/2], with a half-way tie mapped to the
// representative of opposite sign (Delta(0, 0.5) = -0.5,
// Delta(0.5, 0) = 0.5).
func Delta(a, b float64) float64 {
	d := b - a
	if d >= 0.5 {
		return d - 1
	}
	if d <= -0.5 {
		return d + 1
	}
	return d
}

// Sub returns the minimal displacement vector from q to p on the torus.
// Each component lies in [-1/2, 1/2], as Delta's does.
func Sub(p, q Point) (dx, dy float64) {
	return Delta(q.X, p.X), Delta(q.Y, p.Y)
}

// Add translates p by (dx, dy) and wraps the result back onto the torus.
func Add(p Point, dx, dy float64) Point {
	return Pt(p.X+dx, p.Y+dy)
}

// Dist2 returns the squared torus distance between a and b.
func Dist2(a, b Point) float64 {
	dx := Delta(a.X, b.X)
	dy := Delta(a.Y, b.Y)
	return dx*dx + dy*dy
}

// Dist returns the torus distance between a and b. The maximum possible
// value is sqrt(2)/2.
func Dist(a, b Point) float64 {
	return math.Sqrt(Dist2(a, b))
}

// MaxDist is the largest possible torus distance between two points.
var MaxDist = math.Sqrt2 / 2

// Lerp moves from a toward b along the shortest torus path by fraction t
// (t=0 yields a, t=1 yields b).
func Lerp(a, b Point, t float64) Point {
	dx, dy := Sub(b, a)
	return Add(a, t*dx, t*dy)
}
