package core

import (
	"testing"
	"unsafe"
)

// TestRequestRecordSize: the addressee's incarnation stamp fills padding, so
// a request record stays 152 bytes.
func TestRequestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(ikcRequest{}); got != 152 {
		t.Errorf("unsafe.Sizeof(ikcRequest{}) = %d B, want 152", got)
	}
}

// TestRequestDroppedTwicePanics: a reference dropped more often than held
// is a bug in the holders, and the second drop of a record says so.
func TestRequestDroppedTwicePanics(t *testing.T) {
	s := MustNew(Config{Kernels: 2, UserPEs: 2})
	defer s.Close()
	req := s.kernels[0].request(ikcRequest{Kind: ikcRevoke})
	req.hold().drop(s)
	req.drop(s)
	if s.reqs.Idle() != 1 || s.reqs.Held() != 0 || req.refs != 0 || req.Kind != 0 {
		t.Fatalf("the last drop left %d records released, %d held, and the record %+v", s.reqs.Idle(), s.reqs.Held(), *req)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dropping a record twice did not panic")
		}
	}()
	req.drop(s)
}
