"""Historical implementations kept only as test oracles."""
