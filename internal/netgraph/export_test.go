package netgraph

// PeekExpanded takes a query context from the pool, reads its node-expansion
// counter and puts it back. Two peeks that return the same context bracket
// the expansions of the queries run between them on this goroutine; a pool
// miss returns a different context and the sample is unreadable.
func PeekExpanded(nodes int) (ctx any, expanded uint64) {
	c := getCtx(nodes)
	defer putCtx(c)
	return c, c.expanded
}
