// Package graph holds the shortest-path machinery the directed Steiner
// tree solver builds on: weighted digraphs in compressed-sparse-row
// form (CSR, built from an EdgeList), a bucket-queue Dijkstra with
// pooled scratch, and arena-backed buffers for the solver's sweeps.
package graph

import "math"

// Inf is the distance assigned to unreachable vertices.
var Inf = math.Inf(1)
