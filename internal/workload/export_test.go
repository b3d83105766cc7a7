package workload

// StoredHash is the content hash FromSpec stored on q (0 for a query built
// as a literal); RecomputeHash computes it from q's fields.
func StoredHash(q *Query) uint64 { return q.hash }

func RecomputeHash(q *Query) uint64 { return computeHash(q) }
