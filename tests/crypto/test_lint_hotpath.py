"""The hot-path lints: the names these checks had before they became rows of
``tests/lint/rules.py``, each asserting its rules' verdicts."""

from tests.lint.harness import rule_test

test_no_per_block_conversion_in_crypto_loops = rule_test("no-per-block-conversion")
test_the_oracle_would_be_flagged = rule_test("no-per-block-conversion")
test_lint_catches_a_planted_offender = rule_test("no-per-block-conversion")
test_src_holds_one_des = rule_test("src-holds-one-des")
test_one_des_lint_catches_planted_offenders = rule_test("src-holds-one-des")
test_no_per_datagram_copy_in_batch_framing = rule_test("no-copy-in-batch-framing")
test_batch_copy_lint_catches_a_planted_offender = rule_test("no-copy-in-batch-framing")
test_no_registry_scan_per_item_in_kdc = rule_test("no-registry-scan-per-item")
test_registry_scan_lint_catches_a_planted_offender = rule_test("no-registry-scan-per-item")
test_no_expansion_in_the_block_kernels = rule_test("no-expansion-in-block-kernels")
test_kernel_lint_catches_planted_offenders = rule_test("no-expansion-in-block-kernels")
test_no_kernel_table_exceeds_4096_entries = rule_test("no-kernel-table-over-4096")
test_the_wide_seal_step_stays_in_arrays = rule_test(
    "des-simd-one-round-loop", "modes-call-each-kernel-once"
)
test_unsealing_is_one_pass_outside_any_loop = rule_test("modes-call-each-kernel-once")
test_des_simd_holds_one_sixteen_round_loop = rule_test("des-simd-one-round-loop")
test_no_ip_or_fp_table_is_read_inside_the_step_loop = rule_test("des-simd-one-round-loop")
test_array_lints_catch_planted_offenders = rule_test(
    "modes-call-each-kernel-once", "des-simd-one-round-loop"
)
test_run_kernel_lints_catch_planted_offenders = rule_test("des-simd-one-round-loop")
test_one_decode_one_encode_in_the_kdc = rule_test("single-request-is-a-batch-of-one")
test_the_single_request_path_stays_deleted = rule_test("removed-names-stay-gone")
test_pipeline_reads_handles_not_the_registry = rule_test("pipeline-reads-handles")
test_no_batch_of_one_fast_path = rule_test("single-request-is-a-batch-of-one")
test_one_plane_lints_catch_planted_offenders = rule_test(
    "single-request-is-a-batch-of-one", "pipeline-reads-handles", "removed-names-stay-gone"
)
test_no_stage_calls_the_cipher_per_item = rule_test("no-per-item-cipher-call")
test_per_item_cipher_lint_catches_planted_offenders = rule_test("no-per-item-cipher-call")
test_the_field_walker_stays_deleted = rule_test("removed-names-stay-gone")
test_nothing_interprets_a_declaration_per_message = rule_test(
    "codec-interprets-nothing-per-message"
)
test_generated_code_is_straight_line = rule_test("generated-code-is-straight-line")
test_codec_lints_catch_planted_offenders = rule_test(
    "generated-code-is-straight-line", "codec-interprets-nothing-per-message"
)
