"""Deterministic discrete-event simulator of TCP traffic over ATM-UBR
switches, with tail drop, EPD, Selective Drop, and FBA buffer policies."""
