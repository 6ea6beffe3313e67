package service

import "time"

// TenantTokens reports what is left in a tenant's admission bucket.
func (s *Server) TenantTokens(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenantLocked(name).tokens
}

// SetClosing makes submissions see a server that is closing, or not,
// without closing anything: the state handleSubmit finds when Close wins
// the race against an admitted request.
func (s *Server) SetClosing(closing bool) {
	s.mu.Lock()
	s.closed = closing
	s.mu.Unlock()
}

// SetBodyStall shortens bodyStallTimeout for this server. Call it before
// the server takes requests.
func (s *Server) SetBodyStall(d time.Duration) { s.bodyStall = d }
