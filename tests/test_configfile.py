import pytest

from blindim import configfile


GOOD = """
# three-cell symmetric system
K = 3
users_per_cell = 3
cir_len = 8,2,2; 2,8,2; 2,2,8
snr_db = 20
subblocks = 10
seed = 7
"""


class TestParse:
    def test_round_trip(self):
        cfg = configfile.load_system_config(GOOD)
        assert cfg.K == 3
        assert cfg.users_per_cell == (3, 3, 3)
        assert cfg.cir_len == ((8, 2, 2), (2, 8, 2), (2, 2, 8))
        assert cfg.snr_db == 20.0
        assert cfg.subblocks == 10
        assert cfg.seed == 7

    def test_defaults(self):
        cfg = configfile.load_system_config("")
        assert cfg.K == 2
        assert cfg.users_per_cell == (2, 2)
        assert cfg.cir_len == ((4, 2), (2, 4))
        assert cfg.subblocks == 1

    def test_comments_and_blank_lines_ignored(self):
        cfg = configfile.load_system_config("\n# hi\nK = 2  # trailing\n\n")
        assert cfg.K == 2

    def test_per_cell_user_list(self):
        cfg = configfile.load_system_config("K = 2\nusers_per_cell = 1,4\n")
        assert cfg.users_per_cell == (1, 4)

    def test_deployment_keys(self):
        # deployment settings are not read from files: their keys are unknown
        for line in ("bandwidth_hz = 5", "pdp_decay = 0.1; 0.2", "site_spacing_m = 80"):
            with pytest.raises(configfile.ConfigParseError, match="unknown key") as exc:
                configfile.load_system_config("K = 2\n" + line + "\n")
            assert exc.value.line_no == 2


class TestErrors:
    def assert_error_at(self, text, line_no, fragment):
        with pytest.raises(configfile.ConfigParseError) as exc:
            configfile.load_system_config(text)
        assert exc.value.line_no == line_no
        assert fragment in str(exc.value)

    def test_missing_equals(self):
        self.assert_error_at("K = 2\njust words\n", 2, "key = value")

    def test_unknown_key(self):
        self.assert_error_at("K = 2\nbogus = 1\n", 2, "unknown key")

    def test_duplicate_key(self):
        self.assert_error_at("K = 2\nK = 3\n", 2, "duplicate")

    def test_bad_integer(self):
        self.assert_error_at("K = two\n", 1, "integer")

    @pytest.mark.parametrize("line", ["K = 2.5", "users_per_cell = 2.9, 2",
                                      "cir_len = 4.7, 2; 2, 4", "subblocks = 2.5", "seed = 1.5"])
    def test_fractional_count(self, line):
        self.assert_error_at("snr_db = 10\n%s\n" % line, 2, "integer")

    def test_bad_matrix(self):
        self.assert_error_at("K = 2\ncir_len = 4,x; 2,4\n", 2, "cir_len")

    def test_empty_key(self):
        self.assert_error_at("= 3\n", 1, "empty key")
