//go:build !poison

package disk

func poisonPage([]byte) {} // ordinary builds: a page is handed over as it is
