module ulp

go 1.23
