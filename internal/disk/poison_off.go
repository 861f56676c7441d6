//go:build !poison

package disk

const poison = false

func poisonPage([]byte) {} // ordinary builds: a page is handed over as it is
