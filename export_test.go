package ftfft

// PooledContexts reports how many idle execution contexts a Transform's or
// RealTransform's freelist currently retains, and the freelist's cap. Every
// executor bounds its freelist so a burst of M concurrent calls never pins
// M workspaces; the context-pool tests observe that cap through this hook.
func PooledContexts(t any) (free, capacity int) {
	switch tt := t.(type) {
	case *ndTransform:
		return tt.pl.PooledContexts()
	case *parTransform:
		return tt.pl.PooledContexts()
	case *realTransform:
		return tt.free.Idle()
	default:
		return 0, 0
	}
}
