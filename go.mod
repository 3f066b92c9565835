module transparentedge

go 1.23
